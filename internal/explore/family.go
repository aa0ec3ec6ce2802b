package explore

import "math/bits"

// family is a product family of initial configurations that the
// visited set holds by arithmetic instead of by slot (setFamily). Init
// i, under id i, is the mixed-radix number i over the per-process
// domains, process 0 fastest (productInits), and its key is the first
// init's key with each process p's block set to the payload of p's
// digit (seedProduct). So a key is a kept init iff
//
//   - its bits outside the process blocks are the first init's,
//   - each process's block is in that process's payload table, and
//   - the number its digits spell is below size, the seed layer's cut
//     (productCut's kept) —
//
// and that number is its id. A successor inside the family is a depth-0
// duplicate; the explorer asks member before it hashes (emit).
type family struct {
	size  int32
	fixed []uint64 // the first init's key, bits outside the blocks only
	mask  []uint64 // 1 on the bits outside every process block
	procs []famProc
}

// famProc is one process's digit table: its block's place in the key
// and an open-addressing map from block payload to digit. Domains have
// tens of entries and blocks tens of bits, so a direct array is out.
// seen has bit payload·famMul >> 58 set for every payload in the
// table: most blocks that are not are turned away by it without a
// table read.
type famProc struct {
	off, bits int
	radix     int64
	shift     uint // home slot = payload·famMul >> shift
	seen      uint64
	slots     []famSlot
}

type famSlot struct {
	payload uint64
	digit   int32 // the digit plus one; 0 marks an empty slot
}

// newFamily compiles the family of the first size configurations of
// the product whose process p has the block payloads tabs[p] (distinct;
// procTables) at bit offset off[p], width[p] bits wide, around first, the
// key of configuration 0.
func newFamily(off, width []int, tabs [][]uint64, first []uint64, size int) *family {
	f := &family{size: int32(size), fixed: make([]uint64, len(first)), mask: make([]uint64, len(first))}
	for i := range f.mask {
		f.mask[i] = ^uint64(0)
	}
	// Most significant digit first: member stops as soon as the prefix
	// alone reaches size.
	for p := len(tabs) - 1; p >= 0; p-- {
		if width[p] > 0 {
			patchWords(f.mask, off[p], width[p], 0)
		}
		// At most half full, and at least two slots: shift < 64.
		k := max(bits.Len(uint(2*len(tabs[p])-1)), 1)
		n := 1 << k
		fp := famProc{off: off[p], bits: width[p], radix: int64(len(tabs[p])), shift: uint(64 - k), slots: make([]famSlot, n)}
		for d, x := range tabs[p] {
			i := fp.home(x)
			for fp.slots[i].digit != 0 {
				i = (i + 1) & (n - 1)
			}
			fp.slots[i] = famSlot{payload: x, digit: int32(d) + 1}
			fp.seen |= 1 << (x * famMul >> 58)
		}
		f.procs = append(f.procs, fp)
	}
	for i := range f.fixed {
		f.fixed[i] = first[i] & f.mask[i]
	}
	return f
}

// famMul is 2^64 over the golden ratio, the multiplier of both hashes.
const famMul = 0x9e3779b97f4a7c15

func (p *famProc) home(x uint64) int { return int(x * famMul >> p.shift) }

// digit returns the digit whose payload is x, or −1.
func (p *famProc) digit(x uint64) int64 {
	if p.seen&(1<<(x*famMul>>58)) == 0 {
		return -1
	}
	mask := len(p.slots) - 1
	for i := p.home(x); ; i = (i + 1) & mask {
		switch s := &p.slots[i]; {
		case s.digit == 0:
			return -1
		case s.payload == x:
			return int64(s.digit - 1)
		}
	}
}

// member returns key's id when key is a kept init of the family, else
// −1.
func (f *family) member(key []uint64) int32 {
	// The blocks first: most keys that are not members fail there, at
	// the first block or two.
	var id int64
	for i := range f.procs {
		p := &f.procs[i]
		r := bitReader{src: key, bit: p.off}
		d := p.digit(r.get(p.bits))
		if d < 0 {
			return -1
		}
		// A prefix at or past size stays there: every later digit
		// scales it by a radix of at least one.
		if id = id*p.radix + d; id >= int64(f.size) {
			return -1
		}
	}
	for i, m := range f.mask {
		if key[i]&m != f.fixed[i] {
			return -1
		}
	}
	return int32(id)
}

// outside returns the processes of procs whose block in key is in no
// init (not in their digit table). A successor keeps every block its
// selection leaves out, so one with such a block unselected is no
// member, and the batch pipeline skips member for it.
func (f *family) outside(key []uint64, procs uint64) uint64 {
	var out uint64
	for rest := procs; rest != 0; rest &= rest - 1 {
		q := bits.TrailingZeros64(rest)
		p := &f.procs[len(f.procs)-1-q] // most significant digit first
		r := bitReader{src: key, bit: p.off}
		if p.digit(r.get(p.bits)) < 0 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// len is the number of members, the ids [0, len) (0 for a nil family).
func (f *family) len() int {
	if f == nil {
		return 0
	}
	return int(f.size)
}

// setFamily registers the seed's product family (newFamily's
// arguments) on a fresh set: its members, ids [0, size), are then known
// by arithmetic and hold no slot — the seed's load and a checkpoint
// restore skip them, and Probe and Contains answer them first. The
// single-node explorer's seedProduct and restore only; cluster peers
// register none.
func (v *Visited) setFamily(off, width []int, tabs [][]uint64, first []uint64, size int) {
	if v.nstates != 0 {
		panic("explore: registering a family on a non-empty set")
	}
	v.fam = newFamily(off, width, tabs, first, size)
}
