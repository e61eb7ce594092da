package graph

import (
	"errors"
	"fmt"
)

// Varint-delta edge-block codec: the compressed representation behind
// CSR's packed destination arrays (see BuildPackedCSR).
//
// The flat destination array is cut into fixed-size blocks of
// edgeBlockLen entries (the last block may be short). Within a block,
// entry 0 is stored as the zigzag varint of its value and every later
// entry as the zigzag varint of its delta from the previous entry —
// zigzag because adjacency is stored in *builder order*, not sorted
// order (preserving builder order is what keeps packed runs
// byte-identical to the int32 path: message order and float fold order
// never change), so deltas can be negative. Loaders that sort adjacency
// (ReadSNAP, ReadEdgeList) make the deltas small and positive, which is
// where the compression wins come from; a hostile order still round-
// trips, it just compresses worse (at most 5 bytes per entry).
//
// A per-block byte-offset directory gives random access at block
// granularity: decoding entry i touches one block, never the whole
// stream, so span decodes into worker-local scratch stay O(degree +
// edgeBlockLen).

// edgeBlockLen is the number of entries per compressed block. 64 keeps
// the stack decode buffer at 256 bytes and the offset directory under
// 0.07 bytes/entry.
const edgeBlockLen = 64

// maxVarintLen32 is the worst-case encoded size of one entry.
const maxVarintLen32 = 5

// errCorruptBlock reports a packed block that cannot be decoded:
// truncated stream, varint overflow, or a delta chain leaving int32
// range. Decoders on untrusted input (file loading, fuzzing) return it;
// in-memory streams built by packEdges cannot trigger it.
var errCorruptBlock = errors.New("graph: corrupt varint edge block")

// zigzag maps signed deltas to unsigned varint-friendly space:
// 0,-1,1,-2,... -> 0,1,2,3,...
func zigzag(x int32) uint32 { return uint32((x << 1) ^ (x >> 31)) }

func unzigzag(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// appendUvarint32 appends u in LEB128 varint form (at most 5 bytes).
func appendUvarint32(dst []byte, u uint32) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// uvarint32Len returns the encoded size of u without encoding it.
func uvarint32Len(u uint32) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// appendEdgeBlock delta-encodes src (one block, at most edgeBlockLen
// entries) onto dst. The first entry is encoded as a delta from zero.
func appendEdgeBlock(dst []byte, src []VertexID) []byte {
	prev := int32(0)
	for _, d := range src {
		dst = appendUvarint32(dst, zigzag(int32(d)-prev))
		prev = int32(d)
	}
	return dst
}

// edgeBlockLenBytes returns the exact encoded size of one block,
// letting packEdges allocate the stream in one exactly-sized slab (no
// append growth, no transient 2x).
func edgeBlockLenBytes(src []VertexID) int {
	prev := int32(0)
	n := 0
	for _, d := range src {
		n += uvarint32Len(zigzag(int32(d) - prev))
		prev = int32(d)
	}
	return n
}

// decodeEdgeBlock decodes the first count entries of one block from
// data into out, returning the number of bytes consumed. Any defect in
// the stream — truncation, a varint longer than 5 bytes, an
// out-of-range count — returns errCorruptBlock; it never panics and
// never reads past data, so it is safe on untrusted bytes (the fuzz
// target and the .vcsr loader both drive it with garbage). The delta
// accumulation wraps in int32, mirroring the encoder's wrapping
// subtraction, so the codec is total: every int32 sequence round-trips
// exactly, including MinInt32/MaxInt32 jumps.
//
// While a worst-case varint still fits in data, each entry is read from
// a fixed 5-byte window with no per-byte bounds or truncation check;
// only the last few entries of a block take the checked byte loop, so
// truncation can only be detected there.
func decodeEdgeBlock(data []byte, count int, out *[edgeBlockLen]VertexID) (int, error) {
	if count < 0 || count > edgeBlockLen {
		return 0, fmt.Errorf("%w: count %d out of range", errCorruptBlock, count)
	}
	pos, i := 0, 0
	prev := int32(0)
	for ; i < count && pos+maxVarintLen32 <= len(data); i++ {
		w := (*[maxVarintLen32]byte)(data[pos : pos+maxVarintLen32])
		u, n := uint32(w[0]), 1
		if u >= 0x80 {
			u, n = u&0x7f|uint32(w[1]&0x7f)<<7, 2
			if w[1] >= 0x80 {
				u, n = u|uint32(w[2]&0x7f)<<14, 3
				if w[2] >= 0x80 {
					u, n = u|uint32(w[3]&0x7f)<<21, 4
					if w[3] >= 0x80 {
						if w[4] > 0x0f {
							return 0, fmt.Errorf("%w: varint overflow at entry %d", errCorruptBlock, i)
						}
						u, n = u|uint32(w[4])<<28, 5
					}
				}
			}
		}
		pos += n
		prev += unzigzag(u)
		out[i] = VertexID(prev)
	}
	for ; i < count; i++ {
		var u uint32
		var shift uint
		for {
			if pos >= len(data) {
				return 0, fmt.Errorf("%w: truncated at entry %d", errCorruptBlock, i)
			}
			b := data[pos]
			pos++
			if shift == (maxVarintLen32-1)*7 && b > 0x0f {
				return 0, fmt.Errorf("%w: varint overflow at entry %d", errCorruptBlock, i)
			}
			u |= uint32(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
			if shift >= maxVarintLen32*7 {
				return 0, fmt.Errorf("%w: varint too long at entry %d", errCorruptBlock, i)
			}
		}
		prev += unzigzag(u)
		out[i] = VertexID(prev)
	}
	return pos, nil
}

// packedEdges is a varint-delta compressed replacement for a flat
// []VertexID: the byte stream plus a block directory. Immutable after
// construction and safe for concurrent readers.
type packedEdges struct {
	n    int32    // entry count
	data []byte   // concatenated encoded blocks
	boff []uint32 // numBlocks+1 byte offsets into data
}

func packedNumBlocks(n int) int { return (n + edgeBlockLen - 1) / edgeBlockLen }

// packEdges compresses src with exact two-pass sizing: the stream slab
// is allocated at its final size, so building a packed CSR allocates
// only the bytes it retains.
func packEdges(src []VertexID) *packedEdges {
	nb := packedNumBlocks(len(src))
	p := &packedEdges{n: int32(len(src)), boff: make([]uint32, nb+1)}
	total := 0
	for b := 0; b < nb; b++ {
		p.boff[b] = uint32(total)
		lo := b * edgeBlockLen
		hi := min(lo+edgeBlockLen, len(src))
		total += edgeBlockLenBytes(src[lo:hi])
	}
	p.boff[nb] = uint32(total)
	p.data = make([]byte, 0, total)
	for b := 0; b < nb; b++ {
		lo := b * edgeBlockLen
		hi := min(lo+edgeBlockLen, len(src))
		p.data = appendEdgeBlock(p.data, src[lo:hi])
	}
	return p
}

// sizeBytes returns the retained footprint of the packed array.
func (p *packedEdges) sizeBytes() int { return len(p.data) + 4*len(p.boff) }

// block returns the byte slice of block b.
func (p *packedEdges) block(b int) []byte { return p.data[p.boff[b]:p.boff[b+1]] }

// blockCount returns the number of entries stored in block b.
func (p *packedEdges) blockCount(b int) int {
	lo := b * edgeBlockLen
	return min(edgeBlockLen, int(p.n)-lo)
}

// mustDecodePrefix decodes the first k entries of block b into out.
// Corruption is impossible for streams built by packEdges and is
// checked at load time for mmap-backed streams, so failure here is a
// program bug.
func (p *packedEdges) mustDecodePrefix(b, k int, out *[edgeBlockLen]VertexID) {
	if _, err := decodeEdgeBlock(p.block(b), k, out); err != nil {
		panic(err)
	}
}

// at returns entry i, decoding its block prefix. O(edgeBlockLen): meant
// for cold random access (mutation-overlay scans), not hot loops.
func (p *packedEdges) at(i int32) VertexID {
	var buf [edgeBlockLen]VertexID
	k := int(i)%edgeBlockLen + 1
	p.mustDecodePrefix(int(i)/edgeBlockLen, k, &buf)
	return buf[k-1]
}

// rangeBlock decodes the part of block b that the range [lo, hi) needs
// into buf — the block's prefix up to the range's last entry in it —
// and returns that part's bounds [s, e) within the block.
func (p *packedEdges) rangeBlock(b int, lo, hi int32, buf *[edgeBlockLen]VertexID) (s, e int32) {
	first := int32(b) * edgeBlockLen
	s, e = max(lo-first, 0), min(hi-first, edgeBlockLen)
	p.mustDecodePrefix(b, int(e), buf)
	return s, e
}

// appendRange appends entries [lo, hi) to dst and returns it: the
// span decode behind Out/In and the Scratch-less readers.
func (p *packedEdges) appendRange(dst []VertexID, lo, hi int32) []VertexID {
	var buf [edgeBlockLen]VertexID
	for b := int(lo) / edgeBlockLen; lo < hi && int32(b)*edgeBlockLen < hi; b++ {
		s, e := p.rangeBlock(b, lo, hi, &buf)
		dst = append(dst, buf[s:e]...)
	}
	return dst
}

// forEachRange calls f(i, value) for every entry in [lo, hi), decoding
// block by block into a stack buffer: zero heap allocation.
func (p *packedEdges) forEachRange(lo, hi int32, f func(i int32, d VertexID)) {
	var buf [edgeBlockLen]VertexID
	for b := int(lo) / edgeBlockLen; lo < hi && int32(b)*edgeBlockLen < hi; b++ {
		s, e := p.rangeBlock(b, lo, hi, &buf)
		first := int32(b) * edgeBlockLen
		for i := s; i < e; i++ {
			f(first+i, buf[i])
		}
	}
}

// blockCache holds the last block a Scratch decoded from one stream, so
// a worker sweeping vertices in ascending order decodes every block of
// the stream once instead of once per span that touches it. It is keyed
// on the stream pointer as well as the block index: one Scratch read
// against two snapshots, a DeltaCSR and its base, or the out- and
// in-streams of a directed graph never serves a stale block.
type blockCache struct {
	p   *packedEdges // stream buf was decoded from; nil when empty
	b   int          // block index within p
	buf [edgeBlockLen]VertexID
}

// load makes c hold block b of p, decoding only on a miss.
func (c *blockCache) load(p *packedEdges, b int) {
	if c.p != p || c.b != b {
		p.mustDecodePrefix(b, p.blockCount(b), &c.buf)
		c.p, c.b = p, b
	}
}

// span returns entries [lo, hi) of p through the cache. A span inside
// one block is a capacity-capped view of the cache, so appending to it
// reallocates instead of overwriting the block; a span crossing blocks
// is assembled in *asm, which keeps its grown capacity.
func (c *blockCache) span(p *packedEdges, asm *[]VertexID, lo, hi int32) []VertexID {
	if lo == hi {
		return nil
	}
	b := int(lo) / edgeBlockLen
	first := int32(b) * edgeBlockLen
	if hi-first <= edgeBlockLen {
		c.load(p, b)
		return c.buf[lo-first : hi-first : hi-first]
	}
	dst := (*asm)[:0]
	for ; first < hi; b, first = b+1, first+edgeBlockLen {
		c.load(p, b)
		dst = append(dst, c.buf[max(lo-first, 0):min(hi-first, edgeBlockLen)]...)
	}
	*asm = dst
	return dst
}

// validate decodes every block once, proving that later internal
// decodes cannot fail. Loaders of untrusted streams (OpenCSRFile) call
// it before publishing the CSR.
func (p *packedEdges) validate() error {
	nb := packedNumBlocks(int(p.n))
	if p.n < 0 || len(p.boff) != nb+1 {
		return fmt.Errorf("%w: directory has %d offsets for %d blocks", errCorruptBlock, len(p.boff), nb)
	}
	if nb > 0 && int(p.boff[nb]) != len(p.data) {
		return fmt.Errorf("%w: directory end %d != stream length %d", errCorruptBlock, p.boff[nb], len(p.data))
	}
	var buf [edgeBlockLen]VertexID
	for b := 0; b < nb; b++ {
		if p.boff[b] > p.boff[b+1] || int(p.boff[b+1]) > len(p.data) {
			return fmt.Errorf("%w: directory not monotone at block %d", errCorruptBlock, b)
		}
		used, err := decodeEdgeBlock(p.block(b), p.blockCount(b), &buf)
		if err != nil {
			return err
		}
		if used != len(p.block(b)) {
			return fmt.Errorf("%w: block %d has %d trailing bytes", errCorruptBlock, b, len(p.block(b))-used)
		}
	}
	return nil
}
