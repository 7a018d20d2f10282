// Package compress implements a CodePack-style code compressor, the §4
// direction the survey proposes to offset encryption cost: "IBM proposes
// a tool for code compression: CodePack. The performance impact is
// claimed to be about +/- 10% (depends on the type of memory used) and
// an increase of memory density of 35%."
//
// Architecture faithful to CodePack:
//
//   - 32-bit instructions are split into high and low 16-bit halves,
//     each compressed against its own trained table (the two halves have
//     very different statistics: opcodes/registers vs immediates).
//   - Codes are canonical prefix codes over the most frequent halfword
//     values, with an escape code carrying rare values verbatim.
//   - Code is compressed in fixed blocks of instructions, with an index
//     table giving each block's bit offset, preserving random access —
//     the same property the bus engines need for jumps.
//
// The paper's Figure 8 ordering rule — "compression has to be done
// before ciphering, if not, compression will have a very poor ratio due
// to the strong stochastic properties of encrypted data" — is measured
// by experiment E12 using Ratio on ciphertext.
package compress

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
)

// BlockInstructions is the number of 32-bit instructions per compression
// block (CodePack used 16-instruction groups).
const BlockInstructions = 16

// BlockBytes is the plaintext size of one compression block.
const BlockBytes = 4 * BlockInstructions

// tableEntries is the number of halfword values given short codes per
// table; everything else takes the escape path.
const tableEntries = 256

// codeword describes one assigned prefix code.
type codeword struct {
	bits uint32
	n    uint8 // code length in bits
}

// halfTable is one trained table: value -> code, plus the decode side.
type halfTable struct {
	enc map[uint16]codeword
	// decode: sorted by (length, bits) canonical order.
	decValues []uint16
	decCodes  []codeword
	escape    codeword
}

// Codec is a trained CodePack-style compressor.
type Codec struct {
	hi, lo halfTable
	// DecodeCyclesPerInstr models the hardware decompressor's rate; the
	// CodePack core decoded roughly one instruction per cycle after a
	// small startup.
	DecodeCyclesPerInstr int
}

// Train builds a codec from a representative program image (length must
// be a multiple of 4). Frequencies of high and low halfwords are
// collected separately, exactly as CodePack's table construction does.
func Train(program []byte) (*Codec, error) {
	if len(program) == 0 || len(program)%4 != 0 {
		return nil, fmt.Errorf("compress: program length %d not a positive multiple of 4", len(program))
	}
	hiFreq := make(map[uint16]int)
	loFreq := make(map[uint16]int)
	for off := 0; off < len(program); off += 4 {
		w := binary.BigEndian.Uint32(program[off:])
		hiFreq[uint16(w>>16)]++
		loFreq[uint16(w)]++
	}
	c := &Codec{DecodeCyclesPerInstr: 1}
	c.hi = buildTable(hiFreq)
	c.lo = buildTable(loFreq)
	return c, nil
}

// buildTable assigns canonical prefix codes: the top values get codes of
// length 4..12 in frequency buckets, the escape is a fixed 12-bit code
// followed by 16 raw bits. Code lengths follow a Huffman-ish geometric
// ladder that keeps the decoder a simple length-indexed table walk, like
// the hardware.
func buildTable(freq map[uint16]int) halfTable {
	type vf struct {
		v uint16
		f int
	}
	all := make([]vf, 0, len(freq))
	//repro:allow iteration feeds a full sort with a value tiebreak below; map order cannot reach the output
	for v, f := range freq {
		all = append(all, vf{v, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].v < all[j].v
	})
	if len(all) > tableEntries {
		all = all[:tableEntries]
	}

	// Bucket sizes per code length: a fixed ladder (1 code of 2 bits, 3
	// of 4, 10 of 6, 40 of 8, 160 of 10, rest of 12) mirroring
	// CodePack's short-tag buckets, leaving space for the escape at 12.
	ladder := []struct {
		length int
		count  int
	}{{2, 1}, {4, 3}, {6, 10}, {8, 40}, {10, 160}, {12, 42}}

	t := halfTable{enc: make(map[uint16]codeword, len(all))}
	var code uint32
	var prevLen int
	idx := 0
	assign := func(length int) codeword {
		if prevLen != 0 && length > prevLen {
			code <<= uint(length - prevLen)
		}
		cw := codeword{bits: code, n: uint8(length)}
		code++
		prevLen = length
		return cw
	}
	for _, step := range ladder {
		for i := 0; i < step.count && idx < len(all); i++ {
			cw := assign(step.length)
			t.enc[all[idx].v] = cw
			t.decValues = append(t.decValues, all[idx].v)
			t.decCodes = append(t.decCodes, cw)
			idx++
		}
	}
	// Escape: the next canonical 12-bit code (always representable: the
	// ladder leaves at least one spare 12-bit slot because bucket sums
	// fit in the prefix space with room for it).
	t.escape = assign(12)
	return t
}

// bitWriter accumulates a bitstream MSB-first.
type bitWriter struct {
	buf  []byte
	bits uint64
	n    uint
}

func (w *bitWriter) write(bits uint32, n uint8) {
	w.bits = w.bits<<uint(n) | uint64(bits)&((1<<uint(n))-1)
	w.n += uint(n)
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.bits>>w.n))
	}
}

func (w *bitWriter) flush() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.bits<<(8-w.n)))
		w.n = 0
	}
}

// bitReader consumes a bitstream MSB-first.
type bitReader struct {
	buf []byte
	pos uint // bit position
}

func (r *bitReader) read(n uint8) uint32 {
	var out uint32
	for i := uint8(0); i < n; i++ {
		byteIdx := r.pos >> 3
		bit := (r.buf[byteIdx] >> (7 - r.pos&7)) & 1
		out = out<<1 | uint32(bit)
		r.pos++
	}
	return out
}

// Image is a compressed program: the block index plus the bitstream.
type Image struct {
	// Index holds each block's starting bit offset in Stream.
	Index []uint32
	// Stream is the compressed bitstream.
	Stream []byte
	// OriginalBytes is the plaintext image size.
	OriginalBytes int
}

// CompressedBytes is the total compressed footprint including the index
// (4 bytes per block entry, as the on-chip index table would occupy).
func (im *Image) CompressedBytes() int { return len(im.Stream) + 4*len(im.Index) }

// Ratio returns original/compressed — > 1 means the image shrank. The
// survey's 35 % density claim corresponds to ratio ≈ 1.35.
func (im *Image) Ratio() float64 {
	cb := im.CompressedBytes()
	if cb == 0 {
		return 0
	}
	return float64(im.OriginalBytes) / float64(cb)
}

// Compress encodes a program image (length multiple of BlockBytes).
func (c *Codec) Compress(program []byte) (*Image, error) {
	if len(program) == 0 || len(program)%BlockBytes != 0 {
		return nil, fmt.Errorf("compress: image length %d not a positive multiple of %d", len(program), BlockBytes)
	}
	w := &bitWriter{}
	im := &Image{OriginalBytes: len(program)}
	bitPos := uint32(0)
	for off := 0; off < len(program); off += BlockBytes {
		im.Index = append(im.Index, bitPos)
		for i := 0; i < BlockInstructions; i++ {
			word := binary.BigEndian.Uint32(program[off+4*i:])
			bitPos += c.hi.emit(w, uint16(word>>16))
			bitPos += c.lo.emit(w, uint16(word))
		}
	}
	w.flush()
	im.Stream = w.buf
	return im, nil
}

func (t *halfTable) emit(w *bitWriter, v uint16) uint32 {
	if cw, ok := t.enc[v]; ok {
		w.write(cw.bits, cw.n)
		return uint32(cw.n)
	}
	w.write(t.escape.bits, t.escape.n)
	w.write(uint32(v), 16)
	return uint32(t.escape.n) + 16
}

// DecompressBlock decodes block blk (random access via the index),
// returning its BlockBytes of instructions — the operation the
// decompression core performs on every cache-line fill.
func (c *Codec) DecompressBlock(im *Image, blk int) ([]byte, error) {
	if blk < 0 || blk >= len(im.Index) {
		return nil, fmt.Errorf("compress: block %d out of range [0,%d)", blk, len(im.Index))
	}
	r := &bitReader{buf: im.Stream, pos: uint(im.Index[blk])}
	out := make([]byte, BlockBytes)
	for i := 0; i < BlockInstructions; i++ {
		hi, err := c.hi.decode(r)
		if err != nil {
			return nil, err
		}
		lo, err := c.lo.decode(r)
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint32(out[4*i:], uint32(hi)<<16|uint32(lo))
	}
	return out, nil
}

// Decompress decodes the whole image.
func (c *Codec) Decompress(im *Image) ([]byte, error) {
	out := make([]byte, 0, im.OriginalBytes)
	for b := range im.Index {
		blk, err := c.DecompressBlock(im, b)
		if err != nil {
			return nil, err
		}
		out = append(out, blk...)
	}
	return out, nil
}

func (t *halfTable) decode(r *bitReader) (uint16, error) {
	// Canonical decode: extend the code one bit at a time and scan the
	// (short) table; the ladder caps lengths at 12 bits.
	var bits uint32
	var n uint8
	for n < 13 {
		if uint(r.pos) >= uint(len(r.buf))*8 {
			return 0, fmt.Errorf("compress: bitstream underrun")
		}
		bits = bits<<1 | r.read(1)
		n++
		if t.escape.n == n && t.escape.bits == bits {
			return uint16(r.read(16)), nil
		}
		for i, cw := range t.decCodes {
			if cw.n == n && cw.bits == bits {
				return t.decValues[i], nil
			}
		}
	}
	return 0, fmt.Errorf("compress: invalid code in bitstream")
}

// SyntheticProgram generates a program image with realistic instruction
// statistics: a small hot set of opcode halfwords (the skew CodePack
// exploits) and more diffuse immediate halfwords. n is the image size in
// bytes (rounded up to a block multiple).
func SyntheticProgram(n int, seed int64) []byte {
	if n < BlockBytes {
		n = BlockBytes
	}
	if rem := n % BlockBytes; rem != 0 {
		n += BlockBytes - rem
	}
	rng := rand.New(rand.NewSource(seed))
	// 32 hot opcodes cover ~85 % of instructions (Zipf-ish).
	hot := make([]uint16, 32)
	for i := range hot {
		hot[i] = uint16(rng.Intn(1 << 16))
	}
	out := make([]byte, n)
	for off := 0; off < n; off += 4 {
		var hi uint16
		if rng.Float64() < 0.85 {
			// Zipf-like choice within the hot set.
			idx := int(float64(len(hot)) * rng.Float64() * rng.Float64())
			hi = hot[idx]
		} else {
			hi = uint16(rng.Intn(1 << 16))
		}
		// Low halves: small immediates and register fields dominate, as
		// in real RISC code.
		var lo uint16
		switch {
		case rng.Float64() < 0.6:
			lo = uint16(rng.Intn(32)) // tiny immediate / register field
		case rng.Float64() < 0.7:
			lo = uint16(rng.Intn(1024))
		default:
			lo = uint16(rng.Intn(1 << 16))
		}
		binary.BigEndian.PutUint32(out[off:], uint32(hi)<<16|uint32(lo))
	}
	return out
}
