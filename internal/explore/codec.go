package explore

import "fmt"

// Codec is a fixed-width binary state codec: Encode packs a
// configuration into exactly Words 64-bit words, Decode inverts it.
// Two configurations are identified iff their encodings are equal, so
// both directions must be exact over the model's full reachable space
// (per-field bit budgets come from the domain catalogues in
// core.Alg.Domains and the baseline topology; an out-of-domain value is
// a codec bug and panics). The explorer stores states only in this
// form — one append-only arena of Words-sized records — and decodes
// into reusable buffers; the PR 2 string codecs survive solely in the
// differential battery's oracle (stringcodec_test.go).
type Codec[S any] struct {
	// Words is the fixed encoded size, in 64-bit words.
	Words int
	// Encode packs cfg into dst, which has length Words and is zeroed
	// by the caller contract (bitWriter overwrites every word).
	Encode func(dst []uint64, cfg []S)
	// Decode unpacks src (length Words) into cfg, reusing cfg's backing
	// storage where possible.
	Decode func(cfg []S, src []uint64)

	// Incremental encoding, available when every process's field block
	// fits in one 64-bit payload: ProcOff/ProcBits locate process p's
	// block and EncodeProc packs it. The explorer then encodes a
	// successor by patching only the selected processes' blocks into a
	// copy of the parent's encoding instead of re-encoding all n — the
	// codec-side twin of the incremental transition checks. nil
	// EncodeProc falls back to full Encode per successor.
	ProcOff    []int
	ProcBits   []int
	EncodeProc func(cfg []S, p int) uint64
}

// patchWords overwrites the width-bit field at bit offset off with
// payload (width in (0, 64]).
func patchWords(dst []uint64, off, width int, payload uint64) {
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<width - 1
	}
	word, sh := off>>6, off&63
	dst[word] = dst[word]&^(mask<<sh) | payload<<sh
	if sh+width > 64 {
		rem := 64 - sh
		dst[word+1] = dst[word+1]&^(mask>>rem) | payload>>rem
	}
}

// extractWords reads the width-bit field at bit offset off — the exact
// inverse of patchWords, used by the fuzz battery to cross-check
// EncodeProc payloads against full encodings.
func extractWords(src []uint64, off, width int) uint64 {
	word, sh := off>>6, off&63
	v := src[word] >> sh
	if sh+width > 64 {
		v |= src[word+1] << (64 - sh)
	}
	if width < 64 {
		v &= uint64(1)<<width - 1
	}
	return v
}

// bitWriter packs little-endian bit fields into a fixed []uint64
// through a register accumulator: each output word is stored exactly
// once (encode is the hottest loop of the explorer — once per
// enumerated transition). Values must already be domain-validated
// (fieldVal and the index mappers guarantee they fit their width).
type bitWriter struct {
	dst  []uint64
	acc  uint64
	bits int // bits currently in acc
	word int
}

func newBitWriter(dst []uint64) bitWriter {
	return bitWriter{dst: dst}
}

// put appends the low `width` bits of v. width 0 stores nothing
// (singleton domains).
func (w *bitWriter) put(v uint64, width int) {
	w.acc |= v << w.bits
	if w.bits+width >= 64 {
		w.dst[w.word] = w.acc
		w.word++
		if shift := 64 - w.bits; shift < 64 {
			w.acc = v >> shift
		} else {
			w.acc = 0
		}
		w.bits += width - 64
	} else {
		w.bits += width
	}
}

// flush stores the final partial word.
func (w *bitWriter) flush() {
	if w.word < len(w.dst) {
		w.dst[w.word] = w.acc
	}
}

// bitReader is the matching reader.
type bitReader struct {
	src []uint64
	bit int
}

func (r *bitReader) get(width int) uint64 {
	if width == 0 {
		return 0
	}
	word, off := r.bit>>6, r.bit&63
	v := r.src[word] >> off
	if off+width > 64 {
		v |= r.src[word+1] << (64 - off)
	}
	r.bit += width
	if width < 64 {
		v &= (uint64(1) << width) - 1
	}
	return v
}

// fieldVal maps a domain value to its codec index, panicking (codec
// bug) when the value is outside the domain.
func fieldVal(v, lo, card int, what string, p int) uint64 {
	u := v - lo
	if u < 0 || u >= card {
		panic(fmt.Sprintf("explore: %s of process %d out of domain: %d not in [%d,%d)", what, p, v, lo, lo+card))
	}
	return uint64(u)
}

// localPos returns the position of v in the sorted list xs, or -1.
func localPos(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
