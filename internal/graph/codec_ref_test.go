package graph

import (
	"fmt"
	"testing"
)

// decodeEdgeBlockReference is the first block decoder: one checked byte
// at a time for every entry. decodeEdgeBlock's windowed fast path is
// held to it by FuzzDecodeEdgeBlockMatchesReference.
func decodeEdgeBlockReference(data []byte, count int, out *[edgeBlockLen]VertexID) (int, error) {
	if count < 0 || count > edgeBlockLen {
		return 0, fmt.Errorf("%w: count %d out of range", errCorruptBlock, count)
	}
	pos := 0
	prev := int32(0)
	for i := 0; i < count; i++ {
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

// FuzzDecodeEdgeBlockMatchesReference feeds the same bytes to both
// decoders: the consumed length, the error text and out[:count] must
// agree.
func FuzzDecodeEdgeBlockMatchesReference(f *testing.F) {
	// An overflowing 5th byte as the last byte of a window that just fits.
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x1f}, 2)
	// A 5th byte at the window edge that does not overflow.
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}, 2)
	// A 2-byte varint cut off inside the last 4 bytes, after fast entries.
	f.Add([]byte{0x02, 0x04, 0x06, 0x08, 0x0a, 0x0c, 0x80}, 7)
	// More entries asked for than the block holds.
	f.Add([]byte{0x02, 0x02}, 5)
	f.Add(appendEdgeBlock(nil, randomDsts(edgeBlockLen, 3)), edgeBlockLen)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x00}, -1)
	f.Add([]byte{0x00}, edgeBlockLen+1)
	f.Fuzz(func(t *testing.T, raw []byte, count int) {
		var got, want [edgeBlockLen]VertexID
		for i := range got {
			got[i], want[i] = -7, -7
		}
		n, err := decodeEdgeBlock(raw, count, &got)
		rn, rerr := decodeEdgeBlockReference(raw, count, &want)
		if n != rn {
			t.Fatalf("consumed %d bytes, reference %d", n, rn)
		}
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("error %v, reference %v", err, rerr)
		}
		if count >= 0 && count <= edgeBlockLen && got != want {
			t.Fatalf("decoded %v, reference %v", got[:count], want[:count])
		}
	})
}
