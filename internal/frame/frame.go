// Package frame is a minimal length-prefixed, checksummed message
// format for streams: the rfsimd worker pipe and the per-job result
// log. Each frame is
//
//	u32 LE body length | body | u64 LE CRC64-ECMA(body)
//
// where body is one kind byte, a u64 LE payload length and the payload.
// Frames are independent: a reader can resynchronize only by closing
// the stream, which is the intended failure mode — a corrupt frame on a
// worker pipe means the worker is unusable and gets killed, and a torn
// frame at the end of a result log marks where the writer died.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
)

// MaxPayload bounds a single frame payload. Worker outcomes carry a
// JSON-encoded Result (histograms included), which stays far below this.
const MaxPayload = 64 << 20

// headerLen is the body's fixed prefix: the kind byte and the payload
// length.
const headerLen = 1 + 8

var crcTable = crc64.MakeTable(crc64.ECMA)

// Write writes one frame. It performs a single Write call for the whole
// frame, so concurrent writers serialized by a mutex never interleave
// partial frames.
func Write(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("frame: payload %d bytes exceeds the limit %d", len(payload), MaxPayload)
	}
	bodyLen := headerLen + len(payload)
	buf := make([]byte, 0, 4+bodyLen+8)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf[4:], crcTable))
	_, err := w.Write(buf)
	return err
}

// Read reads one frame. A clean EOF before the first header byte is
// returned as io.EOF; truncation anywhere else is io.ErrUnexpectedEOF.
// Corrupt lengths and checksum mismatches yield descriptive errors and
// never a huge allocation.
func Read(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("frame: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < headerLen || n > MaxPayload+headerLen {
		return 0, nil, fmt.Errorf("frame: implausible body length %d", n)
	}
	body, err := readCapped(r, int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("frame: reading body: %w", err)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("frame: reading checksum: %w", err)
	}
	if got, want := binary.LittleEndian.Uint64(sum[:]), crc64.Checksum(body, crcTable); got != want {
		return 0, nil, fmt.Errorf("frame: checksum mismatch (stream %016x, computed %016x)", got, want)
	}
	if plen := binary.LittleEndian.Uint64(body[1:headerLen]); plen != uint64(n-headerLen) {
		return 0, nil, fmt.Errorf("frame: malformed body: payload length %d in a %d-byte body", plen, n)
	}
	return body[0], body[headerLen:], nil
}

// readCapped reads exactly n bytes, growing the buffer in 1 MiB steps so
// a corrupt length on a short stream fails before it allocates n bytes.
func readCapped(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		next := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, next)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
