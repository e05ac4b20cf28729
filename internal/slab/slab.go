// Package slab provides the one arena primitive every pooled batch
// engine carves its reusable buffers from: grow-by-doubling blocks
// whose earlier carves stay valid when the block is replaced (the old
// block is simply retired to the garbage collector), so a batch can
// hand out stable sub-buffers while the arena grows underneath it.
// After a Reset the largest block is kept, so a steady-state batch of
// stable size allocates nothing.
package slab

import "unsafe"

// minBlock is the smallest backing block, in elements. Doubling from
// here reaches any realistic batch size within a few early grows.
const minBlock = 1 << 12

// Slab is the arena. The zero value is ready to use; it is not safe
// for concurrent use (callers pool whole Slabs, not carves).
type Slab[T any] struct {
	buf []T
	// retired counts the elements carved from blocks replaced since the
	// last Reset.
	retired int
}

// Grab carves a length-n, capacity-n buffer. The carve never aliases
// any other carve or later growth (full-slice-expression capped), and
// stays valid until Reset. Callers are expected to overwrite every
// element they read — carves are recycled memory, not zeroed.
func (s *Slab[T]) Grab(n int) []T {
	if len(s.buf)+n > cap(s.buf) {
		c := 2 * cap(s.buf)
		if c < minBlock {
			c = minBlock
		}
		if c < n {
			c = n
		}
		s.retired += len(s.buf)
		s.buf = make([]T, 0, c)
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

// GrabEmpty carves a length-0, capacity-n buffer for append-style
// filling, with the same aliasing guarantees as Grab.
func (s *Slab[T]) GrabEmpty(n int) []T {
	return s.Grab(n)[:0]
}

// Reset empties the slab for reuse, keeping the largest block.
func (s *Slab[T]) Reset() {
	s.buf = s.buf[:0]
	s.retired = 0
}

// Len reports every element carved since the last Reset, including
// carves from blocks retired by growth — the live arena footprint the
// memory gauges read.
func (s *Slab[T]) Len() int { return s.retired + len(s.buf) }

// StringOf copies b into a carve of the byte arena and returns it as a
// string headed directly at the carve — no per-string allocation, only
// the arena's amortized block growth. The string obeys carve
// lifetime: valid until the arena's Reset, and, like any carve, it
// keeps its backing block alive if retained past a block replacement.
// Callers owning a Reset cycle (per-shard arenas) must not let such
// strings escape the cycle.
func StringOf(s *Slab[byte], b []byte) string {
	if len(b) == 0 {
		return ""
	}
	c := s.Grab(len(b))
	copy(c, b)
	return unsafe.String(&c[0], len(c))
}
