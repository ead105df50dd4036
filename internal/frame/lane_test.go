package frame

import (
	"math/rand"
	"testing"
)

// TestCursorLaneBeforeNext pins the Lane() contract: -1 before the first
// Next (a fresh cursor used to report lane 63 — a valid-looking index
// into garbage), then the block lane of each handed-out shot.
func TestCursorLaneBeforeNext(t *testing.T) {
	calls := 0
	cur := NewCursor(func(b *Batch) {
		calls++
		b.Reset(8, 1)
	})
	if got := cur.Lane(); got != -1 {
		t.Fatalf("fresh cursor Lane() = %d, want -1", got)
	}
	if calls != 0 {
		t.Fatalf("Lane() drew a block from a fresh cursor")
	}
	for shot := 0; shot < 2*BlockShots; shot++ {
		cur.Next()
		if got := cur.Lane(); got != shot%BlockShots {
			t.Fatalf("after shot %d: Lane() = %d, want %d", shot, got, shot%BlockShots)
		}
	}
}

// TestLaneMask pins the shared ragged-tail rule, including the
// saturation at both ends.
func TestLaneMask(t *testing.T) {
	cases := []struct {
		shots int
		want  uint64
	}{
		{-3, 0}, {0, 0}, {1, 1}, {5, 0x1F}, {63, ^uint64(0) >> 1},
		{64, ^uint64(0)}, {200, ^uint64(0)},
	}
	for _, c := range cases {
		if got := LaneMask(c.shots); got != c.want {
			t.Fatalf("LaneMask(%d) = %#x, want %#x", c.shots, got, c.want)
		}
	}
	b := Batch{Shots: 37}
	if b.LaneMask() != LaneMask(37) {
		t.Fatalf("Batch.LaneMask disagrees with LaneMask")
	}
}

// TestRaggedTailDeadLanes feeds Pack/Unpack a batch whose dead lanes
// (Shots%64 != 0) are saturated with garbage and checks the garbage
// never escapes: Pack emits rows only for live lanes, Unpack returns the
// batch with dead lanes cleared, and the mask identity
// word & LaneMask(Shots) describes exactly the surviving bits.
func TestRaggedTailDeadLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, shots := range []int{1, 7, 37, 63} {
		var b Batch
		b.Reset(130, 3)
		b.Shots = shots
		live := LaneMask(shots)
		for i := range b.Dets {
			b.Dets[i] = rng.Uint64() // garbage in dead lanes too
		}
		for i := range b.Obs {
			b.Obs[i] = rng.Uint64()
		}
		var p Packed
		Pack(&b, &p)
		if p.Shots() != shots {
			t.Fatalf("shots=%d: packed %d rows", shots, p.Shots())
		}
		// every packed row must match a live lane bit-for-bit
		for s := 0; s < shots; s++ {
			row := p.Syndrome(s)
			for d := 0; d < 130; d++ {
				want := b.Dets[d]>>uint(s)&1 == 1
				got := row[d/8]>>(uint(d)%8)&1 == 1
				if got != want {
					t.Fatalf("shots=%d lane %d det %d: packed %v want %v", shots, s, d, got, want)
				}
			}
		}
		// asking for a dead lane must panic, not read garbage
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("shots=%d: Syndrome(%d) did not panic", shots, shots)
				}
			}()
			p.Syndrome(shots)
		}()
		var back Batch
		Unpack(&p, &back)
		if back.Shots != shots {
			t.Fatalf("shots=%d: unpacked Shots=%d", shots, back.Shots)
		}
		for d := range back.Dets {
			if back.Dets[d] != b.Dets[d]&live {
				t.Fatalf("shots=%d det %d: unpack %#x want %#x (dead lanes must clear)",
					shots, d, back.Dets[d], b.Dets[d]&live)
			}
		}
		for o := range back.Obs {
			if back.Obs[o] != b.Obs[o]&live {
				t.Fatalf("shots=%d obs %d: unpack kept dead-lane garbage", shots, o)
			}
		}
	}
}
