package main

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/actfort/actfort/internal/a51"
)

// timedCracker wraps the engine's shared A5/1 backend and, while
// enabled, counts and times every key-recovery call — the a51 layer's
// span, recorded from outside the program. It implements
// a51.BatchCracker, so the sniffer keeps its batched path, and returns
// exactly what the wrapped backend returns.
type timedCracker struct {
	inner a51.Cracker
	on    atomic.Bool

	calls, samples, found, nanos atomic.Int64
}

// crackerCounts is a snapshot of a timedCracker's counters.
type crackerCounts struct {
	calls, samples, found int64
	busy                  time.Duration
}

func newTimedCracker(inner a51.Cracker) *timedCracker { return &timedCracker{inner: inner} }

// Name reports the wrapped backend's name, so summaries are unchanged.
func (t *timedCracker) Name() string { return t.inner.Name() }

// Recover implements a51.Cracker.
func (t *timedCracker) Recover(ctx context.Context, keystream []byte, frame uint32, space a51.KeySpace) (uint64, error) {
	if !t.on.Load() {
		return t.inner.Recover(ctx, keystream, frame, space)
	}
	start := time.Now()
	key, err := t.inner.Recover(ctx, keystream, frame, space)
	found := int64(0)
	if err == nil {
		found = 1
	}
	t.record(1, found, time.Since(start))
	return key, err
}

// RecoverBatch implements a51.BatchCracker through a51.RecoverAll, which
// uses the wrapped backend's own batch path when it has one.
func (t *timedCracker) RecoverBatch(ctx context.Context, samples []a51.Sample, space a51.KeySpace) ([]uint64, []error) {
	if !t.on.Load() {
		return a51.RecoverAll(ctx, t.inner, samples, space)
	}
	start := time.Now()
	keys, errs := a51.RecoverAll(ctx, t.inner, samples, space)
	took := time.Since(start)
	found := int64(0)
	for _, err := range errs {
		if err == nil {
			found++
		}
	}
	t.record(int64(len(samples)), found, took)
	return keys, errs
}

func (t *timedCracker) record(samples, found int64, took time.Duration) {
	t.calls.Add(1)
	t.samples.Add(samples)
	t.found.Add(found)
	t.nanos.Add(int64(took))
}

func (t *timedCracker) counts() crackerCounts {
	return crackerCounts{
		calls:   t.calls.Load(),
		samples: t.samples.Load(),
		found:   t.found.Load(),
		busy:    time.Duration(t.nanos.Load()),
	}
}
