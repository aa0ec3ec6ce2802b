package explore

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
)

// The PR 2 string codecs: canonical byte-per-field encodings, used only
// by the Reference oracle engine of the differential battery. The live
// engine stores bit-packed binary encodings — see cccodec.go /
// basecodec.go.

// stringCodec is the oracle's state codec for one model.
type stringCodec[S any] struct {
	Encode func(dst []byte, cfg []S) []byte
	Decode func(key string) []S
}

// refCodec picks the string codec matching a model's state type.
func refCodec[S sim.Cloneable[S]](m *Model[S]) stringCodec[S] {
	n := m.Prog.NumProcs
	var c any
	switch any(m).(type) {
	case *Model[core.State]:
		c = stringCodec[core.State]{Encode: encodeCC, Decode: func(key string) []core.State { return decodeCC(key, n) }}
	case *Model[baseline.BState]:
		c = stringCodec[baseline.BState]{Encode: encodeBase, Decode: func(key string) []baseline.BState { return decodeBase(key, n) }}
	default:
		panic(fmt.Sprintf("explore: no string codec for %T", m))
	}
	return c.(stringCodec[S])
}

// appendI16 encodes a small signed int (≥ -1) as two bytes.
func appendI16(dst []byte, v int) []byte {
	u := v + 1
	if u < 0 || u > 0xFFFF {
		panic(fmt.Sprintf("explore: value %d out of codec range", v))
	}
	return append(dst, byte(u>>8), byte(u))
}

func getI16(key string, i int) int {
	return int(key[i])<<8 | int(key[i+1]) - 1
}

// encodeCC produces the canonical byte encoding of a CC ∘ TC
// configuration: per process, a status byte, a packed flag byte
// (T, L, A, H, C), and the seven small ints P, R, Lid, Dist, Parent,
// Vis, Des as offset int16s.
func encodeCC(dst []byte, cfg []core.State) []byte {
	for p := range cfg {
		s := &cfg[p]
		flags := byte(0)
		if s.T {
			flags |= 1
		}
		if s.L {
			flags |= 2
		}
		if s.TC.A {
			flags |= 4
		}
		if s.TC.H != 0 {
			flags |= 8
		}
		if s.TC.C != 0 {
			flags |= 16
		}
		dst = append(dst, byte(s.S), flags)
		dst = appendI16(dst, s.P)
		dst = appendI16(dst, s.R)
		dst = appendI16(dst, s.TC.Lid)
		dst = appendI16(dst, s.TC.Dist)
		dst = appendI16(dst, s.TC.Parent)
		dst = appendI16(dst, s.TC.Vis)
		dst = appendI16(dst, s.TC.Des)
	}
	return dst
}

func decodeCC(key string, n int) []core.State {
	const per = 2 + 7*2
	if len(key) != n*per {
		panic(fmt.Sprintf("explore: key length %d for %d processes", len(key), n))
	}
	cfg := make([]core.State, n)
	for p := 0; p < n; p++ {
		o := p * per
		s := &cfg[p]
		s.S = core.Status(key[o])
		flags := key[o+1]
		s.T = flags&1 != 0
		s.L = flags&2 != 0
		s.TC.A = flags&4 != 0
		if flags&8 != 0 {
			s.TC.H = 1
		}
		if flags&16 != 0 {
			s.TC.C = 1
		}
		s.P = getI16(key, o+2)
		s.R = getI16(key, o+4)
		s.TC.Lid = getI16(key, o+6)
		s.TC.Dist = getI16(key, o+8)
		s.TC.Parent = getI16(key, o+10)
		s.TC.Vis = getI16(key, o+12)
		s.TC.Des = getI16(key, o+14)
	}
	return cfg
}

// encodeBase encodes a baseline configuration: per process a status
// byte, Club and Age as offset int16s, a phase byte, a flag byte
// (HasTok, Handing), a fork-vector length byte, then one byte per
// conflict neighbor packing (Fork, Dirty, Asked). The length prefix
// makes the encoding self-describing, so Decode needs no topology.
func encodeBase(dst []byte, cfg []baseline.BState) []byte {
	for p := range cfg {
		s := &cfg[p]
		flags := byte(0)
		if s.HasTok {
			flags |= 1
		}
		if s.Handing {
			flags |= 2
		}
		dst = append(dst, s.S)
		dst = appendI16(dst, s.Club)
		dst = appendI16(dst, s.Age)
		dst = append(dst, s.Phase, flags, byte(len(s.Fork)))
		for i := range s.Fork {
			b := byte(0)
			if s.Fork[i] {
				b |= 1
			}
			if s.Dirty[i] {
				b |= 2
			}
			if s.Asked[i] {
				b |= 4
			}
			dst = append(dst, b)
		}
	}
	return dst
}

func decodeBase(key string, n int) []baseline.BState {
	cfg := make([]baseline.BState, n)
	o := 0
	for p := 0; p < n; p++ {
		s := &cfg[p]
		s.S = key[o]
		s.Club = getI16(key, o+1)
		s.Age = getI16(key, o+3)
		s.Phase = key[o+5]
		flags := key[o+6]
		s.HasTok = flags&1 != 0
		s.Handing = flags&2 != 0
		k := int(key[o+7])
		o += 8
		if k > 0 {
			buf := make([]bool, 3*k)
			s.Fork = buf[0*k : 1*k : 1*k]
			s.Dirty = buf[1*k : 2*k : 2*k]
			s.Asked = buf[2*k : 3*k : 3*k]
			for i := 0; i < k; i++ {
				b := key[o+i]
				s.Fork[i] = b&1 != 0
				s.Dirty[i] = b&2 != 0
				s.Asked[i] = b&4 != 0
			}
			o += k
		}
	}
	if o != len(key) {
		panic(fmt.Sprintf("explore: baseline key length %d decoded as %d", len(key), o))
	}
	return cfg
}
