package population

import "testing"

// TestPinnedFingerprints holds FingerprintVersion 2 digests constant
// across code changes: these values were captured from the eager
// (pre-lazy-persona) generator, so any drift means the materialized
// bytes moved and FingerprintVersion must bump.
func TestPinnedFingerprints(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"base", Config{Seed: 42, Size: 3000, ShardSize: 256}, 0x49d49243e886542f},
		{"alt-seed", Config{Seed: 7, Size: 2000, ShardSize: 512}, 0xd3e191b70733f522},
		{"no-leaks-scaled", Config{Seed: 11, Size: 1000, ShardSize: 1000, LeakFraction: -1, EnrollmentScale: 1.5}, 0x3ba20b2a0e86f5ce},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Fingerprint(); got != c.want {
				t.Errorf("fingerprint %#x, want pinned %#x (bump FingerprintVersion if the layout changed on purpose)", got, c.want)
			}
		})
	}
}

// TestFingerprintShardGeometry pins that the digest is independent of
// shard geometry: it hashes subscribers in index order, so the same
// population sliced into different shard sizes fingerprints the same.
func TestFingerprintShardGeometry(t *testing.T) {
	var want uint64
	for i, shardSize := range []int{64, 256, 1000, 4096} {
		p, err := New(Config{Seed: 42, Size: 1000, ShardSize: shardSize})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Fingerprint()
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("shardSize=%d: fingerprint %#x, want %#x", shardSize, got, want)
		}
	}
}
