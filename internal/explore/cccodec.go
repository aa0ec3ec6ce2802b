package explore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/token"
)

// Binary codec for CC ∘ TC configurations. Every field is packed with
// the exact bit budget of its domain (core.Alg.Domains): statuses in 2
// bits, the edge pointer as a local index into E_p ∪ {⊥}, identifiers
// as their owner's vertex index, tree pointers as local neighbor
// indices. On a 4-ring this is 21 bits per process — 2 words for the
// whole configuration — where the PR 2 string codec spent 16 bytes per
// process plus a string header per state.

// ccLayout is the per-topology compile of the codec: immutable after
// construction, shared read-only by all worker model instances.
type ccLayout struct {
	h        *hypergraph.H
	procs    []ccProcLayout
	procOff  []int // bit offset of each process's field block
	procBits []int // block width (≤ 63 bits)
	words    int
	idVert   map[int]int // identifier → owning vertex (nil when ids[v] == v)
}

// vertexByID inverts the identifier assignment (hot path: one lookup
// per process per encoded state).
func (l *ccLayout) vertexByID(id int) int {
	if l.idVert == nil {
		if id >= 0 && id < l.h.N() {
			return id
		}
		return -1
	}
	v, ok := l.idVert[id]
	if !ok {
		return -1
	}
	return v
}

type ccProcLayout struct {
	dom core.FieldDomains
	// Bit widths derived from dom.
	wS, wP, wR, wLid, wDist, wParent, wVis, wDes int
	edges                                        []int // E_p, sorted (aliases hypergraph tables)
	nbrs                                         []int // N(p), sorted
}

func newCCLayout(alg *core.Alg) *ccLayout {
	h := alg.H
	l := &ccLayout{h: h, procs: make([]ccProcLayout, h.N())}
	for v := 0; v < h.N(); v++ {
		if h.ID(v) != v {
			l.idVert = make(map[int]int, h.N())
			for u := 0; u < h.N(); u++ {
				l.idVert[h.ID(u)] = u
			}
			break
		}
	}
	bits := 0
	l.procOff = make([]int, h.N())
	l.procBits = make([]int, h.N())
	for p := range l.procs {
		d := alg.Domains(p)
		pl := &l.procs[p]
		pl.dom = d
		pl.wS = core.BitWidth(d.Status)
		pl.wP = core.BitWidth(d.Pointer)
		pl.wR = core.BitWidth(d.Cursor)
		pl.wLid = core.BitWidth(d.Lid)
		pl.wDist = core.BitWidth(d.Dist)
		pl.wParent = core.BitWidth(d.Parent)
		pl.wVis = core.BitWidth(d.Vis)
		pl.wDes = core.BitWidth(d.Des)
		pl.edges = h.EdgesOf(p)
		pl.nbrs = h.Neighbors(p)
		// S, P, T, L, R + Lid, Dist, Parent, A, H, Vis, Des, C.
		pb := pl.wS + pl.wP + 2 + pl.wR +
			pl.wLid + pl.wDist + pl.wParent + 3 + pl.wVis + pl.wDes
		if pb > 64 {
			panic(fmt.Sprintf("explore: process %d needs %d bits (codec block limit 64)", p, pb))
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

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// encodeProc packs process p's field block into one 64-bit payload
// (at most 51 bits within CheckCC's size rule — asserted in newCCLayout).
func (l *ccLayout) encodeProc(cfg []core.State, p int) uint64 {
	s := &cfg[p]
	pl := &l.procs[p]
	acc := fieldVal(int(s.S), int(pl.dom.StatusLo), pl.dom.Status, "status", p)
	b := pl.wS
	ptr := 0
	if s.P != core.NoEdge {
		if ptr = localPos(pl.edges, s.P) + 1; ptr == 0 {
			panic(fmt.Sprintf("explore: pointer %d of process %d not in E_p", s.P, p))
		}
	}
	acc |= uint64(ptr) << b
	b += pl.wP
	acc |= boolBit(s.T) << b
	acc |= boolBit(s.L) << (b + 1)
	b += 2
	acc |= fieldVal(s.R, 0, pl.dom.Cursor, "cursor", p) << b
	b += pl.wR

	lid := l.vertexByID(s.TC.Lid)
	if lid < 0 {
		panic(fmt.Sprintf("explore: leader id %d of process %d is no vertex's identifier", s.TC.Lid, p))
	}
	acc |= uint64(lid) << b
	b += pl.wLid
	acc |= fieldVal(s.TC.Dist, 0, pl.dom.Dist, "distance", p) << b
	b += pl.wDist
	acc |= uint64(nbrIndex(pl.nbrs, s.TC.Parent, "parent", p)) << b
	b += pl.wParent
	acc |= boolBit(s.TC.A) << b
	acc |= fieldVal(int(s.TC.H), 0, 2, "hold flag", p) << (b + 1)
	b += 2
	acc |= fieldVal(s.TC.Vis, 0, pl.dom.Vis, "visit counter", p) << b
	b += pl.wVis
	acc |= uint64(nbrIndex(pl.nbrs, s.TC.Des, "designated child", p)) << b
	b += pl.wDes
	acc |= fieldVal(int(s.TC.C), 0, 2, "wave color", p) << b
	return acc
}

func (l *ccLayout) encode(dst []uint64, cfg []core.State) {
	w := newBitWriter(dst)
	for p := range cfg {
		w.put(l.encodeProc(cfg, p), l.procBits[p])
	}
	w.flush()
}

func nbrIndex(nbrs []int, v int, what string, p int) int {
	if v == -1 {
		return 0
	}
	if i := localPos(nbrs, v); i >= 0 {
		return i + 1
	}
	panic(fmt.Sprintf("explore: %s %d of process %d is not a neighbor", what, v, p))
}

func (l *ccLayout) decode(cfg []core.State, src []uint64) {
	r := bitReader{src: src}
	for p := range cfg {
		s := &cfg[p]
		pl := &l.procs[p]
		s.S = pl.dom.StatusLo + core.Status(r.get(pl.wS))
		if ptr := int(r.get(pl.wP)); ptr == 0 {
			s.P = core.NoEdge
		} else {
			s.P = pl.edges[ptr-1]
		}
		s.T = r.get(1) != 0
		s.L = r.get(1) != 0
		s.R = int(r.get(pl.wR))

		s.TC = token.State{
			Lid:    l.h.ID(int(r.get(pl.wLid))),
			Dist:   int(r.get(pl.wDist)),
			Parent: nbrValue(pl.nbrs, int(r.get(pl.wParent))),
		}
		s.TC.A = r.get(1) != 0
		s.TC.H = uint8(r.get(1))
		s.TC.Vis = int(r.get(pl.wVis))
		s.TC.Des = nbrValue(pl.nbrs, int(r.get(pl.wDes)))
		s.TC.C = uint8(r.get(1))
	}
}

func nbrValue(nbrs []int, idx int) int {
	if idx == 0 {
		return -1
	}
	return nbrs[idx-1]
}

// ccCodec builds the binary codec over the layout.
func ccCodec(l *ccLayout) Codec[core.State] {
	return Codec[core.State]{
		Words:      l.words,
		Encode:     l.encode,
		Decode:     l.decode,
		ProcOff:    l.procOff,
		ProcBits:   l.procBits,
		EncodeProc: l.encodeProc,
	}
}
