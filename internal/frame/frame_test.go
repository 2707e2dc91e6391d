package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := Write(&buf, byte(i+1), p); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	for i, p := range payloads {
		kind, got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if kind != byte(i+1) {
			t.Errorf("frame %d: kind = %d, want %d", i, kind, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, _, err := Read(&buf); err != io.EOF {
		t.Fatalf("Read at end = %v, want io.EOF", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 7, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := Read(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("Read of %d/%d bytes succeeded", cut, len(full))
		}
		if err == io.EOF {
			t.Fatalf("Read of %d/%d bytes returned clean io.EOF", cut, len(full))
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 7, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit in every byte position; every variant must fail (or,
	// for the length header, fail or report truncation) — never succeed.
	for i := range full {
		mut := bytes.Clone(full)
		mut[i] ^= 0x40
		if _, _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestFrameImplausibleLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(MaxPayload)+64)
	_, _, err := Read(bytes.NewReader(hdr[:]))
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized frame length: err = %v, want descriptive error", err)
	}
}
