package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"unsafe"
)

// hostLittleEndian gates the memmove fast paths of the binary batch codec:
// the wire format is little-endian, so on a matching host float payloads
// move as raw bytes with no per-element conversion.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Content types negotiated by the HTTP layer.
const (
	// ContentTypeJSON is the default request/response codec.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the high-throughput batch codec: a fixed header
	// followed by a packed row-major little-endian float64 matrix. Compared
	// with JSON it skips per-number formatting entirely — decode is one
	// allocation for the matrix plus row headers, encode is a straight pack.
	ContentTypeBinary = "application/x-metis-batch"
)

// Binary batch wire format (all integers little-endian):
//
//	request:  magic "MTB1" | nameLen uint16 | rows uint32 | features uint32 |
//	          name [nameLen]byte | payload rows×features float64
//	response: magic "MTB1" | kind uint8 (0 actions, 1 values) | rows uint32 |
//	          dim uint32 | payload — actions: rows × int32,
//	          values: rows×dim float64
//
// The format is deliberately self-describing and round-trippable:
// EncodeBatchRequest ∘ DecodeBatchRequest and EncodeBatchResponse ∘
// DecodeBatchResponse are identity (up to row-slice aliasing), which the
// codec tests pin down.
const batchMagic = "MTB1"

// batchHeaderSize is the fixed prefix of a binary batch request: magic (4) +
// nameLen (2) + rows (4) + features (4). The model name follows it.
const batchHeaderSize = 14

// Binary response kind tags.
const (
	batchKindActions = 0
	batchKindValues  = 1
)

// maxBinaryFeatures bounds the per-row width accepted from the wire, so a
// corrupt header cannot make the decoder allocate rows×2^32 floats.
const maxBinaryFeatures = 1 << 20

// maxBinaryElems bounds the total float64 count of one decoded matrix
// (rows×features); 2^27 elements is a 1 GiB payload.
const maxBinaryElems = 1 << 27

// ErrBadBatchEncoding reports a malformed binary batch message.
var ErrBadBatchEncoding = errors.New("serve: malformed binary batch")

// EncodeBatchRequest writes a binary batch prediction request for model over
// rows. Every row must have the same width.
func EncodeBatchRequest(w io.Writer, model string, rows [][]float64) error {
	if len(model) > math.MaxUint16 {
		return fmt.Errorf("%w: model name of %d bytes", ErrBadBatchEncoding, len(model))
	}
	features := 0
	if len(rows) > 0 {
		features = len(rows[0])
	}
	buf := make([]byte, 14+len(model)+len(rows)*features*8)
	copy(buf, batchMagic)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(model)))
	binary.LittleEndian.PutUint32(buf[6:10], uint32(len(rows)))
	binary.LittleEndian.PutUint32(buf[10:14], uint32(features))
	copy(buf[14:], model)
	off := 14 + len(model)
	for i, row := range rows {
		if len(row) != features {
			return fmt.Errorf("%w: row %d has %d features, row 0 has %d", ErrBadBatchEncoding, i, len(row), features)
		}
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	_, err := w.Write(buf)
	return err
}

// DecodeBatchRequest parses a binary batch request, enforcing maxRows on the
// claimed batch size before allocating. The returned rows are views into one
// contiguous backing array (a single allocation for the whole matrix).
func DecodeBatchRequest(r io.Reader, maxRows int) (model string, rows [][]float64, err error) {
	frame, err := readBatchRequest(r, nil, maxRows)
	if err != nil {
		return "", nil, err
	}
	// aliasOK: frame is this call's own buffer, so the rows may keep it.
	return new(batchScratch).decodeRequestBytes(frame, maxRows, true)
}

// batchHeader is the validated fixed prefix of a binary batch request.
type batchHeader struct{ nameLen, rows, features int }

// bodyLen is the byte length of the name and matrix that follow the header.
func (h batchHeader) bodyLen() int { return h.nameLen + h.rows*h.features*8 }

// parseBatchHeader validates the fixed prefix of a binary batch request, the
// one header check every decoder shares. The sizes are checked in 64-bit
// space before any int conversion or allocation: on 32-bit platforms a
// uint32 header field could wrap int negative and bypass the limit checks. A
// *BatchSizeError (more than maxRows rows) still returns the parsed header.
func parseBatchHeader(head []byte, maxRows int) (batchHeader, error) {
	if len(head) < batchHeaderSize {
		return batchHeader{}, fmt.Errorf("%w: short header: %d bytes", ErrBadBatchEncoding, len(head))
	}
	if string(head[:4]) != batchMagic {
		return batchHeader{}, fmt.Errorf("%w: bad magic %q", ErrBadBatchEncoding, head[:4])
	}
	nameLen := int(binary.LittleEndian.Uint16(head[4:6]))
	rows64 := int64(binary.LittleEndian.Uint32(head[6:10]))
	features64 := int64(binary.LittleEndian.Uint32(head[10:14]))
	if rows64 > int64(maxRows) {
		return batchHeader{nameLen: nameLen}, &BatchSizeError{Rows: int(min(rows64, 1<<31-1)), Max: maxRows}
	}
	if features64 > maxBinaryFeatures {
		return batchHeader{}, fmt.Errorf("%w: %d features per row exceeds the %d limit", ErrBadBatchEncoding, features64, maxBinaryFeatures)
	}
	if rows64*features64 > maxBinaryElems {
		return batchHeader{}, fmt.Errorf("%w: %d×%d matrix exceeds the %d-element limit", ErrBadBatchEncoding, rows64, features64, maxBinaryElems)
	}
	return batchHeader{nameLen: nameLen, rows: int(rows64), features: int(features64)}, nil
}

// readBatchRequest reads one binary batch request from r into buf (reused
// when it fits) and returns the whole frame, header included, for
// decodeRequestBytes. The header is checked before the body is read, so a
// hostile header fails before anything is allocated for its claim.
func readBatchRequest(r io.Reader, buf []byte, maxRows int) ([]byte, error) {
	head := growBytes(buf, batchHeaderSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadBatchEncoding, err)
	}
	h, err := parseBatchHeader(head, maxRows)
	if err != nil {
		return nil, err
	}
	frame := growBytes(head, batchHeaderSize+h.bodyLen())
	copy(frame, head)
	if _, err := io.ReadFull(r, frame[batchHeaderSize:]); err != nil {
		return nil, fmt.Errorf("%w: short body: %v", ErrBadBatchEncoding, err)
	}
	return frame, nil
}

// batchScratch is the reusable per-call state of one binary predict: the
// request body buffer, the decoded matrix, the prediction outputs, and the
// response encode buffer. Serving loops borrow one from batchScratchPool so
// the steady-state binary path allocates only when a batch outgrows every
// buffer seen before.
type batchScratch struct {
	payload []byte
	flat    []float64
	rows    [][]float64
	pred    Prediction
	resp    []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// growBytes resizes b to n bytes, reusing its backing array when it fits
// and growing geometrically otherwise — a long-lived framing loop fed
// slowly-varying frame sizes reaches a steady state of zero allocations
// instead of reallocating on every new high-water mark. Contents are not
// preserved across a growth; every caller overwrites the full slice.
func growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n, max(n, 2*cap(b)))
}

// decodeRequestBytes is the one binary batch decoder: it parses a
// fully-buffered request frame (magic included) — a socket frame, a ring
// slot, or a body read by readBatchRequest — decoding the name and the
// feature rows straight out of the frame bytes. The returned rows alias
// s.flat and are valid until the next decode on s. The model name is
// returned whenever the frame holds it, even alongside an error, so a batch
// refused for its row count can be reported against its model.
//
// aliasOK extends that to the frame itself: when true AND the float matrix
// happens to be 8-byte-aligned on a little-endian host, the rows alias
// frame directly (zero copies at all) and are valid only until the caller
// recycles the frame's bytes. Pass true only when the frame outlives every
// use of the rows — a shared-memory slot held until Advance, a
// request/response connection buffer — never for a transient bufio peek.
func (s *batchScratch) decodeRequestBytes(frame []byte, maxRows int, aliasOK bool) (model string, rows [][]float64, err error) {
	h, err := parseBatchHeader(frame, maxRows)
	if nameEnd := batchHeaderSize + h.nameLen; len(frame) >= nameEnd {
		model = string(frame[batchHeaderSize:nameEnd])
	}
	if err != nil {
		return model, nil, err
	}
	n := h.rows * h.features
	if len(frame) < batchHeaderSize+h.bodyLen() {
		return model, nil, fmt.Errorf("%w: short payload: %d bytes for %d×%d", ErrBadBatchEncoding, len(frame)-batchHeaderSize, h.rows, h.features)
	}
	// This is the serving hot path; the wire format is little-endian
	// float64, so on a matching host no per-element conversion is needed.
	// Three tiers, fastest first:
	//
	//  1. Zero-copy: when the matrix bytes are 8-byte-aligned in the frame
	//     (shared-memory producers publish with SHMAlignSkip for exactly
	//     this), the rows alias the frame directly — no float is touched.
	//     The rows are only valid until the caller recycles the frame;
	//     every caller consumes them inside the same request.
	//  2. Little-endian host, unaligned: one memmove into the scratch
	//     array's backing store, at copy bandwidth.
	//  3. Other hosts: a load/convert/store loop.
	p := frame[batchHeaderSize+h.nameLen:]
	var flat []float64
	if aliasOK && hostLittleEndian && n > 0 && uintptr(unsafe.Pointer(&p[0]))%8 == 0 {
		flat = unsafe.Slice((*float64)(unsafe.Pointer(&p[0])), n)
	} else {
		s.flat = grow(s.flat, n)
		flat = s.flat
		if hostLittleEndian && n > 0 {
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&flat[0])), n*8), p[:n*8])
		} else {
			for i := range flat {
				flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
			}
		}
	}
	s.rows = grow(s.rows, h.rows)
	for i := range s.rows {
		s.rows[i] = flat[i*h.features : (i+1)*h.features : (i+1)*h.features]
	}
	return model, s.rows, nil
}

// SHMAlignSkip returns how many bytes of padding to leave before payload in
// a shared-memory ring slot (Ring.PublishAt's skip) so that a binary batch
// request's float matrix lands 8-byte-aligned, enabling the server's
// zero-copy decode. Slots are 64-byte-aligned, so in-slot alignment is
// memory alignment. Non-batch payloads need no alignment and get 0.
func SHMAlignSkip(payload []byte) int {
	if len(payload) < 6 || string(payload[:4]) != batchMagic {
		return 0
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[4:6]))
	return -(14 + nameLen) & 7
}

// appendBatchResponse encodes a prediction in the binary batch format into
// dst (overwriting it from the start, growing only when needed) and returns
// the encoded slice.
func appendBatchResponse(dst []byte, p *Prediction) ([]byte, error) {
	if p.Values != nil {
		dim := 0
		if len(p.Values) > 0 {
			dim = len(p.Values[0])
		}
		dst = growBytes(dst, 13+len(p.Values)*dim*8)
		dst[4] = batchKindValues
		binary.LittleEndian.PutUint32(dst[5:9], uint32(len(p.Values)))
		binary.LittleEndian.PutUint32(dst[9:13], uint32(dim))
		off := 13
		for i, row := range p.Values {
			if len(row) != dim {
				return nil, fmt.Errorf("%w: value row %d has dim %d, row 0 has %d", ErrBadBatchEncoding, i, len(row), dim)
			}
			for _, v := range row {
				binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
				off += 8
			}
		}
	} else {
		dst = growBytes(dst, 13+len(p.Actions)*4)
		dst[4] = batchKindActions
		binary.LittleEndian.PutUint32(dst[5:9], uint32(len(p.Actions)))
		binary.LittleEndian.PutUint32(dst[9:13], 1)
		off := 13
		for _, a := range p.Actions {
			binary.LittleEndian.PutUint32(dst[off:], uint32(int32(a)))
			off += 4
		}
	}
	copy(dst, batchMagic)
	return dst, nil
}

// EncodeBatchResponse writes a prediction in the binary batch format.
func EncodeBatchResponse(w io.Writer, p *Prediction) error {
	buf, err := appendBatchResponse(nil, p)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeBatchResponse parses a binary batch response into a Prediction
// (Model is not carried on the response wire and is left empty).
func DecodeBatchResponse(r io.Reader) (*Prediction, error) {
	var head [13]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadBatchEncoding, err)
	}
	if string(head[:4]) != batchMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadBatchEncoding, head[:4])
	}
	kind := head[4]
	// As in DecodeBatchRequest: validate in 64-bit space first, so a
	// malicious server cannot wrap the sizes negative on 32-bit clients.
	rows64 := int64(binary.LittleEndian.Uint32(head[5:9]))
	dim64 := int64(binary.LittleEndian.Uint32(head[9:13]))
	if dim64 > maxBinaryFeatures {
		return nil, fmt.Errorf("%w: %d outputs per row exceeds the %d limit", ErrBadBatchEncoding, dim64, maxBinaryFeatures)
	}
	if rows64 > maxBinaryElems || rows64*max(dim64, 1) > maxBinaryElems {
		return nil, fmt.Errorf("%w: %d×%d response exceeds the %d-element limit", ErrBadBatchEncoding, rows64, dim64, maxBinaryElems)
	}
	nRows, dim := int(rows64), int(dim64)
	p := &Prediction{}
	switch kind {
	case batchKindActions:
		payload := make([]byte, nRows*4)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: short payload: %v", ErrBadBatchEncoding, err)
		}
		p.Actions = make([]int, nRows)
		for i := range p.Actions {
			p.Actions[i] = int(int32(binary.LittleEndian.Uint32(payload[i*4:])))
		}
	case batchKindValues:
		payload := make([]byte, nRows*dim*8)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: short payload: %v", ErrBadBatchEncoding, err)
		}
		flat := make([]float64, nRows*dim)
		for i := range flat {
			flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		p.Values = make([][]float64, nRows)
		for i := range p.Values {
			p.Values[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
	default:
		return nil, fmt.Errorf("%w: unknown response kind %d", ErrBadBatchEncoding, kind)
	}
	return p, nil
}

// writeJSON renders v with the JSON content type and status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
