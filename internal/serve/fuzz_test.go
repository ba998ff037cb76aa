package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/shmring"
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

// alignedCopy copies data into a fresh buffer the way shared-memory
// producers place a request in a ring slot (SHMAlignSkip bytes into an
// 8-byte-aligned allocation), so a batch request's float matrix lands
// 8-byte-aligned and the decoder's aliasing tier can take it.
func alignedCopy(data []byte) []byte {
	skip := SHMAlignSkip(data)
	words := make([]uint64, (skip+len(data))/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return append(buf[skip:skip], data...)
}

// errClass names the class of a decode error: the typed row-cap refusal,
// a malformed encoding, or success.
func errClass(err error) string {
	var size *BatchSizeError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &size):
		return "size"
	case errors.Is(err, ErrBadBatchEncoding):
		return "encoding"
	}
	return "unclassified: " + err.Error()
}

// sameDecode fails t unless the server's frame decoder, at the given aliasing
// tier, agrees with the stream decoder's result on frame: the same error
// class, and on success the same model name, row count, row widths and
// float bits.
func sameDecode(t *testing.T, tier string, frame []byte, aliasOK bool, model string, rows [][]float64, err error) {
	t.Helper()
	var s batchScratch
	model2, rows2, err2 := s.decodeRequestBytes(frame, fuzzMaxRows, aliasOK)
	if errClass(err2) != errClass(err) {
		t.Fatalf("%s: frame decoder says %v, stream decoder %v", tier, err2, err)
	}
	if err != nil {
		return
	}
	if model2 != model || len(rows2) != len(rows) {
		t.Fatalf("%s: frame decoder gives %q with %d rows, stream decoder %q with %d", tier, model2, len(rows2), model, len(rows))
	}
	for i := range rows {
		if len(rows2[i]) != len(rows[i]) {
			t.Fatalf("%s: row %d has %d features, want %d", tier, i, len(rows2[i]), len(rows[i]))
		}
		for j := range rows[i] {
			if math.Float64bits(rows2[i][j]) != math.Float64bits(rows[i][j]) {
				t.Fatalf("%s: row %d feature %d is %x, want %x", tier, i, j, math.Float64bits(rows2[i][j]), math.Float64bits(rows[i][j]))
			}
		}
	}
}

// FuzzDecodeBatch drives every binary batch decoder with arbitrary bytes:
// malformed headers, truncated rows, and huge declared dimensions must
// surface as errors (or size-limit rejections), never as panics or
// unbounded allocations. Well-formed inputs must round-trip. The server's
// frame decoder must agree with the exported stream decoder on every input,
// through both its copying tier and, on an aligned copy, its aliasing tier.
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

	// Special float values must keep their bits through every tier.
	f.Add(validRequest(f, "abcd", [][]float64{{math.Inf(-1), math.NaN()}, {-0.0, math.SmallestNonzeroFloat64}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		model, rows, err := DecodeBatchRequest(bytes.NewReader(data), fuzzMaxRows)
		sameDecode(t, "copy", data, false, model, rows, err)
		sameDecode(t, "alias", alignedCopy(data), true, model, rows, err)
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

// FuzzSHMEncode feeds arbitrary request payloads — predict and control
// frames with hostile sizes among them — to the one frame answerer of an
// engine serving one classifier and one regressor: bounded to a ring slot of
// the smallest size and of 4 KiB, and unbounded (respCap 0) as the pipelined
// socket worker calls it for the frames it copies. It must never panic. A
// ring answer must be written in place: starting at the slot's first byte
// and within its capacity. Every answer is a binary batch response or an
// error frame (a control frame may also be answered with its JSON body).
func FuzzSHMEncode(f *testing.F) {
	dir, _, _ := fixtureDir(f)
	e, err := LoadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = []float64{float64(i) / 8, 1 - float64(i)/8}
	}
	f.Add(validRequest(f, "abr", rows))
	f.Add(validRequest(f, "thresholds", rows))
	// A regression answer too large for the small slot only.
	f.Add(validRequest(f, "thresholds", make([][]float64, 200)))
	f.Add(validRequest(f, "abr", [][]float64{{1, 2, 3}}))
	f.Add(validRequest(f, "nope", rows))
	f.Add(validRequest(f, "abr", nil))
	f.Add(validRequest(f, "", rows))
	// Hostile MTB1 headers: every size field at its maximum, a row count
	// over the cap with no features, and a name longer than the frame.
	for _, h := range [][3]uint32{{math.MaxUint16, math.MaxUint32, math.MaxUint32}, {3, DefaultMaxBatch + 1, 0}, {math.MaxUint16, 1, 2}} {
		head := make([]byte, batchHeaderSize, batchHeaderSize+3)
		copy(head, batchMagic)
		binary.LittleEndian.PutUint16(head[4:6], uint16(h[0]))
		binary.LittleEndian.PutUint32(head[6:10], h[1])
		binary.LittleEndian.PutUint32(head[10:14], h[2])
		f.Add(append(head, "abr"...))
	}
	for _, op := range []string{"models", "stats", "model", "bogus"} {
		ctrl, err := ControlRequest(op, "abr", "")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ctrl)
	}
	f.Add([]byte(controlMagic + "{not json"))
	f.Add([]byte("XXXXjunk"))
	f.Add([]byte(batchMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var s batchScratch
		// Producers place requests in the slab aligned, so the decoder's
		// aliasing tier is reached as on a live ring.
		req := alignedCopy(data)
		for _, size := range []int{shmring.MinSlotSize, 4 << 10, 0} {
			where := fmt.Sprintf("%d-byte slot", size)
			if size == 0 {
				where = "socket"
			}
			slot := make([]byte, 0, max(size, 1))
			out := e.answer(req, &s, slot, size)
			if size > 0 && (len(out) == 0 || &out[0] != &slot[:1][0]) {
				t.Fatalf("%s: the answer does not start at the slot", where)
			}
			if size > 0 && len(out) > cap(slot) {
				t.Fatalf("%s: a %d-byte answer", where, len(out))
			}
			switch FrameKind(out) {
			case batchMagic:
				if _, err := DecodeBatchResponse(bytes.NewReader(out)); err != nil {
					t.Fatalf("%s: malformed response: %v", where, err)
				}
			case errMagic:
				if _, _, err := DecodeErrorPayload(out); err != nil {
					t.Fatalf("%s: malformed error frame: %v", where, err)
				}
			case jsonMagic:
				if FrameKind(data) != controlMagic {
					t.Fatalf("%s: a %q request answered with JSON", where, FrameKind(data))
				}
			default:
				t.Fatalf("%s: answer kind %q", where, FrameKind(out))
			}
		}
	})
}
