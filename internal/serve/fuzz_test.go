package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzMaxRows mirrors a production MaxBatch setting; the decoder must
// enforce it before allocating.
const fuzzMaxRows = 4096

// validRequest builds a well-formed binary batch request for the seed
// corpus.
func validRequest(tb testing.TB, model string, rows [][]float64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeBatchRequest(&buf, model, rows); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeBatch drives both binary batch decoders with arbitrary bytes:
// malformed headers, truncated rows, and huge declared dimensions must
// surface as errors (or size-limit rejections), never as panics or
// unbounded allocations. Well-formed inputs must round-trip.
func FuzzDecodeBatch(f *testing.F) {
	// Well-formed requests.
	f.Add(validRequest(f, "m", [][]float64{{1, 2}, {3, 4}}))
	f.Add(validRequest(f, "", nil))
	// Truncated payload: header promises more rows than follow.
	good := validRequest(f, "dcn", [][]float64{{1, 2, 3}})
	f.Add(good[:len(good)-5])
	// Bad magic.
	f.Add([]byte("NOPE0000000000000000"))
	// Short header.
	f.Add([]byte("MTB1"))
	// Huge declared dims: rows and features pinned to MaxUint32.
	huge := make([]byte, 14)
	copy(huge, "MTB1")
	binary.LittleEndian.PutUint16(huge[4:6], 1)
	binary.LittleEndian.PutUint32(huge[6:10], math.MaxUint32)
	binary.LittleEndian.PutUint32(huge[10:14], math.MaxUint32)
	f.Add(append(huge, 'x'))
	// Response-shaped inputs (13-byte header, kind tag).
	var resp bytes.Buffer
	if err := EncodeBatchResponse(&resp, &Prediction{Actions: []int{1, 2, 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(resp.Bytes())
	var vals bytes.Buffer
	if err := EncodeBatchResponse(&vals, &Prediction{Values: [][]float64{{1.5}, {2.5}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(vals.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		model, rows, err := DecodeBatchRequest(bytes.NewReader(data), fuzzMaxRows)
		if err == nil {
			// Decoded successfully: the result must respect the declared
			// limits and be re-encodable.
			if len(rows) > fuzzMaxRows {
				t.Fatalf("decoder admitted %d rows past the %d cap", len(rows), fuzzMaxRows)
			}
			var re bytes.Buffer
			if err := EncodeBatchRequest(&re, model, rows); err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			model2, rows2, err := DecodeBatchRequest(bytes.NewReader(re.Bytes()), fuzzMaxRows)
			if err != nil || model2 != model || len(rows2) != len(rows) {
				t.Fatalf("re-encoded request does not round-trip: %v", err)
			}
		}
		if p, err := DecodeBatchResponse(bytes.NewReader(data)); err == nil {
			if p.Actions != nil && p.Values != nil {
				t.Fatal("decoded response carries both actions and values")
			}
			var re bytes.Buffer
			if err := EncodeBatchResponse(&re, p); err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
		}
	})
}

// FuzzReadFrameID drives both frame readers with arbitrary byte streams:
// truncated headers, truncated payloads, and hostile declared lengths must
// surface as errors, never panics or unbounded allocations. Every
// well-formed frame written by WriteFrameID must round-trip with its
// correlation ID intact, and ReadFrame must never return a payload over
// maxShortFrame.
func FuzzReadFrameID(f *testing.F) {
	frame := func(id uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrameID(&buf, id, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(0, nil))
	f.Add(frame(42, []byte("MTB1 payload bytes")))
	f.Add(frame(math.MaxUint32, bytes.Repeat([]byte{0xEE}, 300)))
	// Truncated payload: the header promises more bytes than follow.
	whole := frame(7, []byte("0123456789"))
	f.Add(whole[:len(whole)-3])
	// Truncated header.
	f.Add(whole[:6])
	// Hostile length: MaxUint32 payload bytes declared, none present.
	hostile := make([]byte, 8)
	binary.LittleEndian.PutUint32(hostile[0:4], math.MaxUint32)
	binary.LittleEndian.PutUint32(hostile[4:8], 9)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		if short, err := ReadFrame(bytes.NewReader(data), nil); err == nil && len(short) > maxShortFrame {
			t.Fatalf("ReadFrame returned a %d-byte payload past the %d bound", len(short), maxShortFrame)
		}
		id, payload, err := ReadFrameID(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// A successful read must round-trip: re-framing the payload under
		// the same ID reproduces the bytes consumed.
		var re bytes.Buffer
		if err := WriteFrameID(&re, id, payload); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if want := data[:8+len(payload)]; !bytes.Equal(re.Bytes(), want) {
			t.Fatalf("round-trip mismatch: got %x, want %x", re.Bytes(), want)
		}
	})
}
