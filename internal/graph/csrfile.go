package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// The .vcsr on-disk snapshot format: a packed CSR laid out so the file
// can be mapped into memory and served directly — the packed byte
// stream, the block directory, and the offset array are used in place,
// with zero parse-time allocation proportional to the graph.
//
// Layout (all integers little-endian):
//
//	header (64 bytes)
//	  [0:4)    magic "VCSR"
//	  [4:8)    uint32 format version (currently 1)
//	  [8:12)   uint32 flags: bit0 directed, bit1 weighted, bit2 labeled
//	  [12:16)  reserved, zero
//	  [16:24)  uint64 n        — vertex count
//	  [24:32)  uint64 entries  — adjacency entries (== Offsets[n])
//	  [32:40)  uint64 m        — edge count
//	  [40:48)  uint64 dataLen  — packed destination stream bytes
//	  [48:56)  uint64 labels   — edge-label table entries, zero if unlabeled
//	  [56:64)  uint64 textLen  — label text bytes, zero if unlabeled
//	sections, each beginning at an 8-byte-aligned file offset:
//	  offsets  (n+1)×int32
//	  boff     (numBlocks(entries)+1)×uint32
//	  data     dataLen bytes of varint-delta blocks (codec.go)
//	  weights  entries×float64, present iff the weighted flag is set
//	  labelIDs entries×int32, present iff the labeled flag is set
//	  ends     labels×uint32: label i is text[ends[i-1]:ends[i]], label
//	           0 is "" (ends[0] == 0); present iff labeled
//	  text     textLen bytes of label text, present iff labeled
//
// The 8-byte section alignment plus the page alignment of mmap is what
// makes the in-place unsafe.Slice views legal. The transpose is not
// stored; EnsureIn derives it in memory on first use.

const (
	vcsrMagic      = "VCSR"
	vcsrVersion    = 1
	vcsrHeaderLen  = 64
	vcsrFlagDir    = 1 << 0
	vcsrFlagWeight = 1 << 1
	vcsrFlagLabel  = 1 << 2
)

func align8(off int) int { return (off + 7) &^ 7 }

// WriteCSRFile serializes c in the .vcsr format. Flat snapshots are
// packed on the fly. A labeled snapshot writes its label ids and its
// label table as the table stands (the graph's first-add order).
func WriteCSRFile(w io.Writer, c *CSR) error {
	p := c.packed
	if p == nil {
		p = packEdges(c.Dsts)
	}
	var flags uint32
	if c.Directed {
		flags |= vcsrFlagDir
	}
	if c.Weights != nil {
		flags |= vcsrFlagWeight
	}
	textLen := 0
	if c.LabelIDs != nil {
		flags |= vcsrFlagLabel
		for _, l := range c.Labels {
			textLen += len(l)
		}
	}
	var hdr [vcsrHeaderLen]byte
	copy(hdr[0:4], vcsrMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], vcsrVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(c.N()))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(int(p.n)))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(c.M()))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(len(p.data)))
	if c.LabelIDs != nil {
		binary.LittleEndian.PutUint64(hdr[48:56], uint64(len(c.Labels)))
		binary.LittleEndian.PutUint64(hdr[56:64], uint64(textLen))
	}
	bw := bufio.NewWriter(w)
	bw.Write(hdr[:])
	pos := vcsrHeaderLen
	pad := func() {
		for ; pos%8 != 0; pos++ {
			bw.WriteByte(0)
		}
	}
	writeU32s := func(emit func(i int) uint32, n int) {
		pad()
		var b [4]byte
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[:], emit(i))
			bw.Write(b[:])
		}
		pos += 4 * n
	}
	writeU32s(func(i int) uint32 { return uint32(c.Offsets[i]) }, len(c.Offsets))
	writeU32s(func(i int) uint32 { return p.boff[i] }, len(p.boff))
	pad()
	bw.Write(p.data)
	pos += len(p.data)
	if c.Weights != nil {
		pad()
		var b [8]byte
		for _, wt := range c.Weights {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(wt))
			bw.Write(b[:])
		}
		pos += 8 * len(c.Weights)
	}
	if c.LabelIDs != nil {
		writeU32s(func(i int) uint32 { return uint32(c.LabelIDs[i]) }, len(c.LabelIDs))
		end := 0
		writeU32s(func(i int) uint32 { end += len(c.Labels[i]); return uint32(end) }, len(c.Labels))
		pad()
		for _, l := range c.Labels {
			bw.WriteString(l)
		}
		pos += textLen
	}
	return bw.Flush()
}

// WriteCSRFilePath writes g's current snapshot to path in .vcsr format.
func WriteCSRFilePath(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSRFile(f, g.CSR()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func vcsrErr(format string, args ...any) error {
	return fmt.Errorf("graph: vcsr: "+format, args...)
}

// OpenCSRFile maps a .vcsr file and wraps it as a read-only adopted
// Graph (see AdoptCSR): the offset array, block directory, packed byte
// stream, and weights are served from the mapping in place. The file is
// fully validated up front — every block is decoded once and every
// destination range-checked — so the internal decoders, which treat
// their stream as trusted, can never fail afterwards. Call Close on the
// returned graph to release the mapping.
func OpenCSRFile(path string) (*Graph, error) {
	if !nativeLittleEndian() {
		return nil, vcsrErr("big-endian hosts are not supported")
	}
	buf, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	g, err := parseVCSR(buf)
	if err != nil {
		closer()
		return nil, err
	}
	g.closer = closer
	return g, nil
}

func nativeLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

func parseVCSR(buf []byte) (*Graph, error) {
	if len(buf) < vcsrHeaderLen {
		return nil, vcsrErr("file shorter than header")
	}
	if string(buf[0:4]) != vcsrMagic {
		return nil, vcsrErr("bad magic %q", buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != vcsrVersion {
		return nil, vcsrErr("unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint32(buf[8:12])
	n := binary.LittleEndian.Uint64(buf[16:24])
	entries := binary.LittleEndian.Uint64(buf[24:32])
	m := binary.LittleEndian.Uint64(buf[32:40])
	dataLen := binary.LittleEndian.Uint64(buf[40:48])
	labels := binary.LittleEndian.Uint64(buf[48:56])
	textLen := binary.LittleEndian.Uint64(buf[56:64])
	if n > math.MaxInt32 || entries > math.MaxInt32 || m > entries || dataLen > uint64(len(buf)) ||
		labels > uint64(len(buf)) || textLen > uint64(len(buf)) {
		return nil, vcsrErr("implausible header n=%d entries=%d m=%d dataLen=%d labels=%d textLen=%d",
			n, entries, m, dataLen, labels, textLen)
	}
	if flags&^(vcsrFlagDir|vcsrFlagWeight|vcsrFlagLabel) != 0 {
		return nil, vcsrErr("unknown flags %#x", flags)
	}
	if (flags&vcsrFlagLabel != 0) != (labels > 0) || (labels == 0 && textLen > 0) {
		return nil, vcsrErr("label table of %d entries does not match flags %#x", labels, flags)
	}
	nb := packedNumBlocks(int(entries))
	pos := vcsrHeaderLen
	section := func(elem, count int) ([]byte, error) {
		pos = align8(pos)
		end := pos + elem*count
		if end > len(buf) {
			return nil, vcsrErr("file truncated: need %d bytes, have %d", end, len(buf))
		}
		s := buf[pos:end]
		pos = end
		return s, nil
	}
	offB, err := section(4, int(n)+1)
	if err != nil {
		return nil, err
	}
	boffB, err := section(4, nb+1)
	if err != nil {
		return nil, err
	}
	dataB, err := section(1, int(dataLen))
	if err != nil {
		return nil, err
	}
	c := &CSR{
		Directed: flags&vcsrFlagDir != 0,
		Offsets:  int32View(offB),
		numEdges: int(m),
		packed: &packedEdges{
			n:    int32(entries),
			data: dataB,
			boff: uint32View(boffB),
		},
	}
	if flags&vcsrFlagWeight != 0 {
		wB, err := section(8, int(entries))
		if err != nil {
			return nil, err
		}
		c.Weights = float64View(wB)
	}
	if flags&vcsrFlagLabel != 0 {
		if err := parseVCSRLabels(c, section, int(entries), int(labels), int(textLen)); err != nil {
			return nil, err
		}
	}
	// Structural validation: offsets monotone and spanning entries,
	// every block decodable, every destination in range. After this the
	// trusted-stream decoders (mustDecodePrefix) cannot fail.
	if c.Offsets[0] != 0 || c.Offsets[n] != int32(entries) {
		return nil, vcsrErr("offsets do not span [0, %d]", entries)
	}
	for v := uint64(0); v < n; v++ {
		if c.Offsets[v] > c.Offsets[v+1] {
			return nil, vcsrErr("offsets not monotone at vertex %d", v)
		}
	}
	if err := c.packed.validate(); err != nil {
		return nil, err
	}
	var bad error
	c.packed.forEachRange(0, int32(entries), func(i int32, d VertexID) {
		if bad == nil && (d < 0 || uint64(d) >= n) {
			bad = vcsrErr("destination %d out of range at entry %d", d, i)
		}
	})
	if bad != nil {
		return nil, bad
	}
	return AdoptCSR(c), nil
}

// parseVCSRLabels reads the label-id section in place and copies the
// label table out of the mapping, so the strings outlive Close. Every
// id must index the table, and the table must start with "".
func parseVCSRLabels(c *CSR, section func(elem, count int) ([]byte, error), entries, labels, textLen int) error {
	idB, err := section(4, entries)
	if err != nil {
		return err
	}
	endB, err := section(4, labels)
	if err != nil {
		return err
	}
	text, err := section(1, textLen)
	if err != nil {
		return err
	}
	ends := uint32View(endB)
	c.Labels = make([]string, labels)
	start := uint32(0)
	for i, end := range ends {
		if end < start || end > uint32(textLen) || (i == 0 && end != 0) {
			return vcsrErr("label table entry %d ends at %d, out of range [%d, %d]", i, end, start, textLen)
		}
		c.Labels[i] = string(text[start:end])
		start = end
	}
	if start != uint32(textLen) {
		return vcsrErr("label table ends at %d, text holds %d bytes", start, textLen)
	}
	c.LabelIDs = int32View(idB)
	for i, id := range c.LabelIDs {
		if id < 0 || int(id) >= labels {
			return vcsrErr("label id %d out of range at entry %d", id, i)
		}
	}
	return nil
}

// The in-place views: legal because every section starts 8-byte aligned
// within the file and mapFile returns 8-byte-aligned memory (page-
// aligned for mmap, a []uint64 allocation for the portable fallback).
func int32View(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func uint32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func float64View(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}
