// Package pauli propagates single Pauli faults forward through stabilizer
// circuits using sparse Pauli-frame tracking. It is the test reference for
// the circuit layer: dem's extraction (a backward sensitivity sweep), the
// frame samplers and the tableau cross-validation are checked against it.
//
// A fault injected at a circuit position is conjugated forward through the
// remaining Clifford operations; measurements whose outcomes it flips are
// recorded. The walk is event-driven over per-qubit op timelines, so the
// cost per fault is proportional to the ops actually touched by the
// spreading Pauli's support, not to the whole circuit.
//
// Frame rules (conjugation by Cliffords, collapse at measurements):
//
//	H:  X ↔ Z
//	CX: X on control spreads to target; Z on target spreads to control
//	M:  outcome flips iff frame has X; the Z component is destroyed
//	MR, R: outcome flips iff X (MR); frame on the qubit is cleared
package pauli

import (
	"sort"

	"bpsf/internal/circuit"
)

// Bits is a single-qubit Pauli in symplectic form: bit 0 = X component,
// bit 1 = Z component (3 = Y).
type Bits byte

const (
	// X is the Pauli-X component flag.
	X Bits = 1
	// Z is the Pauli-Z component flag.
	Z Bits = 2
	// Y is X|Z.
	Y Bits = 3
)

// Propagator propagates faults through a fixed circuit. Create with New;
// one Propagator may be reused for any number of Propagate calls (not
// concurrently).
type Propagator struct {
	c *circuit.Circuit
	// timeline[q] lists the original op indices of the non-noise ops
	// touching qubit q, ascending.
	timeline [][]int

	frame map[int]Bits
	heap  []int64 // opIdx<<32 | qubit
	flips []int
}

// New builds a Propagator for c.
func New(c *circuit.Circuit) *Propagator {
	p := &Propagator{c: c, frame: make(map[int]Bits)}
	p.timeline = make([][]int, c.NumQubits)
	for i, op := range c.Ops {
		if op.Type.IsNoise() {
			continue
		}
		p.timeline[op.Q0] = append(p.timeline[op.Q0], i)
		if op.Type == circuit.OpCX {
			p.timeline[op.Q1] = append(p.timeline[op.Q1], i)
		}
	}
	return p
}

// Propagate injects the Pauli given by (qubits, paulis) immediately after
// circuit position afterOp (use -1 to inject before the first op) and
// returns the sorted measurement indices whose outcomes flip. The returned
// slice is valid until the next call.
func (p *Propagator) Propagate(afterOp int, qubits []int, paulis []Bits) []int {
	for k := range p.frame {
		delete(p.frame, k)
	}
	p.heap = p.heap[:0]
	p.flips = p.flips[:0]

	for i, q := range qubits {
		if paulis[i] == 0 {
			continue
		}
		f := p.frame[q] ^ paulis[i]
		if f == 0 {
			delete(p.frame, q)
		} else {
			p.frame[q] = f
		}
	}
	for q := range p.frame {
		p.pushNext(q, afterOp)
	}

	lastProcessed := -1
	for len(p.heap) > 0 {
		key := p.popMin()
		opIdx := int(key >> 32)
		q := int(uint32(key))
		f, live := p.frame[q]
		if !live {
			continue
		}
		if f == 0 {
			delete(p.frame, q)
			continue
		}
		if opIdx == lastProcessed {
			// op already applied when its partner qubit popped first;
			// just advance this qubit
			if p.frame[q] != 0 {
				p.pushNext(q, opIdx)
			} else {
				delete(p.frame, q)
			}
			continue
		}
		lastProcessed = opIdx
		p.apply(opIdx)
		if nf, ok := p.frame[q]; ok {
			if nf != 0 {
				p.pushNext(q, opIdx)
			} else {
				delete(p.frame, q)
			}
		}
	}
	sort.Ints(p.flips)
	return p.flips
}

// apply conjugates the frame through the op at opIdx, recording measurement
// flips and scheduling freshly-infected qubits.
func (p *Propagator) apply(opIdx int) {
	op := p.c.Ops[opIdx]
	switch op.Type {
	case circuit.OpH:
		if f, ok := p.frame[op.Q0]; ok {
			p.frame[op.Q0] = (f&X)<<1 | (f&Z)>>1
		}
	case circuit.OpCX:
		fc, cLive := p.frame[op.Q0]
		ft, tLive := p.frame[op.Q1]
		newT := ft
		if fc&X != 0 {
			newT ^= X
		}
		newC := fc
		if ft&Z != 0 {
			newC ^= Z
		}
		if cLive || newC != 0 {
			p.frame[op.Q0] = newC
		}
		if tLive || newT != 0 {
			p.frame[op.Q1] = newT
		}
		if !cLive && newC != 0 {
			p.pushNext(op.Q0, opIdx)
		}
		if !tLive && newT != 0 {
			p.pushNext(op.Q1, opIdx)
		}
	case circuit.OpM:
		f := p.frame[op.Q0]
		if f&X != 0 {
			p.flips = append(p.flips, op.Meas)
		}
		p.frame[op.Q0] = f & X // collapse destroys the Z component
	case circuit.OpMR:
		if p.frame[op.Q0]&X != 0 {
			p.flips = append(p.flips, op.Meas)
		}
		p.frame[op.Q0] = 0
	case circuit.OpR:
		p.frame[op.Q0] = 0
	}
}

// pushNext schedules qubit q's first op strictly after afterOp.
func (p *Propagator) pushNext(q, afterOp int) {
	tl := p.timeline[q]
	k := sort.SearchInts(tl, afterOp+1)
	if k < len(tl) {
		p.pushHeap(int64(tl[k])<<32 | int64(uint32(q)))
	}
}

func (p *Propagator) pushHeap(v int64) {
	p.heap = append(p.heap, v)
	i := len(p.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.heap[parent] <= p.heap[i] {
			break
		}
		p.heap[parent], p.heap[i] = p.heap[i], p.heap[parent]
		i = parent
	}
}

func (p *Propagator) popMin() int64 {
	v := p.heap[0]
	last := len(p.heap) - 1
	p.heap[0] = p.heap[last]
	p.heap = p.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(p.heap) && p.heap[l] < p.heap[small] {
			small = l
		}
		if r < len(p.heap) && p.heap[r] < p.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		p.heap[i], p.heap[small] = p.heap[small], p.heap[i]
		i = small
	}
	return v
}
