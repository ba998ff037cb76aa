// Package artifact is the deployment container format of the reproduction:
// one versioned, checksummed file layout for every model the pipeline
// produces — distilled trees, quantized trees, raw networks, the three
// teacher families, the RouteNet* model, and finished mask searches. The
// training side writes artifacts (cmd binaries via -save, the experiment
// fixture via its cache), and the serving side (internal/serve,
// cmd/metis-serve) reads them back without knowing how they were produced.
//
// Layout (all integers big-endian):
//
//	[0:8)    magic "METISART"
//	[8:10)   format version (currently 1)
//	[10:14)  header length H
//	[14:14+H) gob-encoded header: kind, metadata, payload length, CRC-32C
//	[14+H:)  payload — the model's own BinaryMarshaler encoding
//
// The payload checksum is verified on every read, so a truncated copy or a
// bit flip surfaces as ErrChecksum instead of a gob panic deep inside a
// model decoder.
package artifact

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a Metis artifact file.
const Magic = "METISART"

// Version is the current container format version.
const Version = 1

// Error sentinels, matchable with errors.Is.
var (
	// ErrBadMagic means the file is not a Metis artifact.
	ErrBadMagic = errors.New("artifact: bad magic (not a metis artifact)")
	// ErrVersion means the container format version is unsupported.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrChecksum means the payload failed its CRC check.
	ErrChecksum = errors.New("artifact: payload checksum mismatch")
	// ErrWrongKind means the artifact holds a different model kind than the
	// caller asked for.
	ErrWrongKind = errors.New("artifact: wrong kind")
	// ErrUnknownKind means the artifact's kind has no registered decoder.
	ErrUnknownKind = errors.New("artifact: unknown kind")
)

// castagnoli is the CRC-32C table used for payload checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the gob-encoded metadata block between the fixed prefix and the
// payload.
type header struct {
	Kind       string
	Meta       map[string]string
	PayloadLen uint64
	CRC        uint32
}

// Artifact is a parsed container: the kind tag, free-form metadata, and the
// raw (checksum-verified) payload.
type Artifact struct {
	Kind    string
	Meta    map[string]string
	Payload []byte
}

// Write serializes a model into the container format. meta may be nil.
func Write(w io.Writer, kind string, meta map[string]string, model encoding.BinaryMarshaler) error {
	payload, err := model.MarshalBinary()
	if err != nil {
		return fmt.Errorf("artifact: marshal %s: %w", kind, err)
	}
	return WritePayload(w, kind, meta, payload)
}

// WritePayload writes an already-encoded payload in the container format.
func WritePayload(w io.Writer, kind string, meta map[string]string, payload []byte) error {
	h := header{
		Kind:       kind,
		Meta:       meta,
		PayloadLen: uint64(len(payload)),
		CRC:        crc32.Checksum(payload, castagnoli),
	}
	var hbuf bytes.Buffer
	if err := gob.NewEncoder(&hbuf).Encode(h); err != nil {
		return fmt.Errorf("artifact: encode header: %w", err)
	}
	prefix := make([]byte, prefixLen)
	copy(prefix, Magic)
	binary.BigEndian.PutUint16(prefix[8:10], Version)
	binary.BigEndian.PutUint32(prefix[10:prefixLen], uint32(hbuf.Len()))
	for _, chunk := range [][]byte{prefix, hbuf.Bytes(), payload} {
		if _, err := w.Write(chunk); err != nil {
			return fmt.Errorf("artifact: write: %w", err)
		}
	}
	return nil
}

// Save writes a model to path atomically (temp file + rename), creating
// parent directories as needed.
func Save(path, kind string, meta map[string]string, model encoding.BinaryMarshaler) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: save %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".artifact-*")
	if err != nil {
		return fmt.Errorf("artifact: save %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, kind, meta, model); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("artifact: save %s: %w", path, err)
	}
	// CreateTemp makes the file 0600; artifacts are typically written by a
	// training job and read by a different serving user, so widen to the
	// conventional 0644.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("artifact: save %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("artifact: save %s: %w", path, err)
	}
	return nil
}

// prefixLen is the length of the fixed magic, version and header-length
// prefix.
const prefixLen = 14

// Read parses a container from r, verifying magic, version, and checksum.
func Read(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("artifact: read: %w", err)
	}
	return parse(data)
}

// Open parses the artifact at path. The file is read in one call into a
// buffer of its own size, which the returned Payload aliases.
func Open(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: open: %w", err)
	}
	a, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// parse validates and splits one whole container. The returned Payload
// aliases data.
func parse(data []byte) (*Artifact, error) {
	if len(data) < prefixLen {
		return nil, fmt.Errorf("%w (short read: %d of %d prefix bytes)", ErrBadMagic, len(data), prefixLen)
	}
	if string(data[:8]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(data[8:10]); v != Version {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, v, Version)
	}
	// The length fields are not themselves checksummed, so never allocate
	// from them: validate the claimed lengths against the bytes actually
	// held. A corrupted length then surfaces as a typed error instead of a
	// huge make() panic.
	rest := data[prefixLen:]
	hlen := int64(binary.BigEndian.Uint32(data[10:prefixLen]))
	if hlen > int64(len(rest)) {
		return nil, fmt.Errorf("%w (header length %d exceeds file)", ErrChecksum, hlen)
	}
	var h header
	if err := gob.NewDecoder(bytes.NewReader(rest[:hlen])).Decode(&h); err != nil {
		return nil, fmt.Errorf("artifact: decode header: %w", err)
	}
	payload := rest[hlen:]
	if h.PayloadLen != uint64(len(payload)) {
		return nil, fmt.Errorf("%w (payload is %d bytes, header claims %d)", ErrChecksum, len(payload), h.PayloadLen)
	}
	if crc32.Checksum(payload, castagnoli) != h.CRC {
		return nil, ErrChecksum
	}
	return &Artifact{Kind: h.Kind, Meta: h.Meta, Payload: payload}, nil
}
