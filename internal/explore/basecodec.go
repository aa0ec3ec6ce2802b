package explore

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
)

// Binary codec for the baseline configurations. Professors carry a
// status (3 values), a club pointer in E_p ∪ {⊥} and the voluntary-
// discussion clock in [0, Disc]; committee agents carry a phase (4
// values), the token bits and three bits per conflict neighbor. All
// other fields are singleton domains and occupy zero bits (encode
// asserts they hold their only admissible value).

type baseLayout struct {
	h        *hypergraph.H
	disc     int
	procs    []baseProcLayout
	procOff  []int
	procBits []int
	words    int
}

type baseProcLayout struct {
	comm   bool
	edges  []int // professors: E_p
	wClub  int
	wAge   int
	nconfl int // committee agents: |conflicts(e)|
}

// newBaseLayout compiles the codec for one baseline kind: only dining
// carries per-conflict-neighbor fork vectors (the token ring's agents
// keep them nil, which encode asserts).
func newBaseLayout(h *hypergraph.H, disc int, forks bool) *baseLayout {
	l := &baseLayout{h: h, disc: disc, procs: make([]baseProcLayout, h.N()+h.M())}
	conflicts := h.ConflictGraph()
	bits := 0
	l.procOff = make([]int, len(l.procs))
	l.procBits = make([]int, len(l.procs))
	for p := range l.procs {
		pl := &l.procs[p]
		pb := 0
		if p < h.N() {
			pl.edges = h.EdgesOf(p)
			pl.wClub = core.BitWidth(len(pl.edges) + 1)
			pl.wAge = core.BitWidth(disc + 1)
			pb = 2 + pl.wClub + pl.wAge
		} else {
			pl.comm = true
			if forks {
				pl.nconfl = len(conflicts[p-h.N()])
			}
			pb = 2 + 2 + 3*pl.nconfl
		}
		l.procOff[p] = bits
		l.procBits[p] = pb
		bits += pb
	}
	l.words = (bits + 63) / 64
	if l.words == 0 {
		l.words = 1
	}
	return l
}

// encodeProc packs process p's field block into one 64-bit payload
// (CheckBaseline refuses a layout with a wider block).
func (l *baseLayout) encodeProc(cfg []baseline.BState, p int) uint64 {
	s := &cfg[p]
	pl := &l.procs[p]
	if !pl.comm {
		acc := fieldVal(int(s.S), 0, 3, "status", p)
		club := 0
		if s.Club != -1 {
			if club = localPos(pl.edges, s.Club) + 1; club == 0 {
				panic(fmt.Sprintf("explore: club %d of professor %d not in E_p", s.Club, p))
			}
		}
		acc |= uint64(club) << 2
		acc |= fieldVal(s.Age, 0, l.disc+1, "age", p) << (2 + pl.wClub)
		return acc
	}
	if s.Club != -1 || s.Age != 0 || s.S != 0 {
		panic(fmt.Sprintf("explore: committee agent %d holds professor state", p))
	}
	acc := fieldVal(int(s.Phase), 0, 4, "phase", p)
	acc |= boolBit(s.HasTok) << 2
	acc |= boolBit(s.Handing) << 3
	if len(s.Fork) != pl.nconfl {
		panic(fmt.Sprintf("explore: committee agent %d has %d fork slots, want %d", p, len(s.Fork), pl.nconfl))
	}
	b := 4
	for i := 0; i < pl.nconfl; i++ {
		acc |= (boolBit(s.Fork[i]) | boolBit(s.Dirty[i])<<1 | boolBit(s.Asked[i])<<2) << b
		b += 3
	}
	return acc
}

func (l *baseLayout) encode(dst []uint64, cfg []baseline.BState) {
	w := newBitWriter(dst)
	for p := range cfg {
		w.put(l.encodeProc(cfg, p), l.procBits[p])
	}
	w.flush()
}

// decode unpacks src into cfg, reusing each committee agent's fork
// backing array when already sized (the explorer decodes into one
// buffer per worker, so the per-neighbor vectors allocate once).
func (l *baseLayout) decode(cfg []baseline.BState, src []uint64) {
	r := bitReader{src: src}
	for p := range cfg {
		s := &cfg[p]
		pl := &l.procs[p]
		if !pl.comm {
			s.S = uint8(r.get(2))
			if club := int(r.get(pl.wClub)); club == 0 {
				s.Club = -1
			} else {
				s.Club = pl.edges[club-1]
			}
			s.Age = int(r.get(pl.wAge))
			s.Phase, s.HasTok, s.Handing = 0, false, false
			s.Fork, s.Dirty, s.Asked = nil, nil, nil
			continue
		}
		s.S, s.Club, s.Age = 0, -1, 0
		s.Phase = uint8(r.get(2))
		s.HasTok = r.get(1) != 0
		s.Handing = r.get(1) != 0
		k := pl.nconfl
		if len(s.Fork) != k {
			buf := make([]bool, 3*k)
			s.Fork = buf[0*k : 1*k : 1*k]
			s.Dirty = buf[1*k : 2*k : 2*k]
			s.Asked = buf[2*k : 3*k : 3*k]
		}
		for i := 0; i < k; i++ {
			b := r.get(3)
			s.Fork[i] = b&1 != 0
			s.Dirty[i] = b&2 != 0
			s.Asked[i] = b&4 != 0
		}
	}
}

func baseCodec(l *baseLayout) Codec[baseline.BState] {
	return Codec[baseline.BState]{
		Words:      l.words,
		Encode:     l.encode,
		Decode:     l.decode,
		ProcOff:    l.procOff,
		ProcBits:   l.procBits,
		EncodeProc: l.encodeProc,
	}
}
