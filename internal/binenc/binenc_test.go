package binenc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pgss/internal/pgsserrors"
)

const testMagic = "PGSSTEST"

// build writes a container with the given frames and returns its bytes.
func build(t *testing.T, version uint32, frames ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMagic, version)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i, p := range frames {
		if err := w.Frame(uint32(i+1), p); err != nil {
			t.Fatalf("Frame %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	frames := [][]byte{
		[]byte("hello"),               // needs padding
		nil,                           // empty
		[]byte("12345678"),            // exactly aligned
		bytes.Repeat([]byte{7}, 1000), // larger
	}
	data := build(t, 3, frames...)

	r, version, err := NewReader(data, testMagic)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if version != 3 {
		t.Fatalf("version = %d, want 3", version)
	}
	for i, want := range frames {
		tag, payload, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if tag != uint32(i+1) {
			t.Fatalf("frame %d tag = %d, want %d", i, tag, i+1)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d payload = %q, want %q", i, payload, want)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestNumericFrames(t *testing.T) {
	u := []uint32{0, 1, 0xdeadbeef, math.MaxUint32}
	f := []float64{0, -1.5, math.Pi, math.Inf(1)}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.FrameU32s(1, u); err != nil {
		t.Fatal(err)
	}
	if err := w.FrameF64s(2, f); err != nil {
		t.Fatal(err)
	}

	r, _, err := NewReader(buf.Bytes(), testMagic)
	if err != nil {
		t.Fatal(err)
	}
	_, p1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := U32s(p1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u {
		if gotU[i] != u[i] {
			t.Fatalf("u32[%d] = %d, want %d", i, gotU[i], u[i])
		}
	}
	_, p2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotF, err := F64s(p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if gotF[i] != f[i] {
			t.Fatalf("f64[%d] = %v, want %v", i, gotF[i], f[i])
		}
	}
}

func TestNumericMisalignedFallback(t *testing.T) {
	// Payloads at odd offsets must still decode (copying path).
	raw := U32sAsBytes([]uint32{1, 2, 3})
	shifted := make([]byte, len(raw)+1)
	copy(shifted[1:], raw)
	got, err := U32s(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("misaligned U32s = %v", got)
	}
	rawF := F64sAsBytes([]float64{2.5})
	shiftedF := make([]byte, len(rawF)+1)
	copy(shiftedF[1:], rawF)
	gotF, err := F64s(shiftedF[1:])
	if err != nil {
		t.Fatal(err)
	}
	if gotF[0] != 2.5 {
		t.Fatalf("misaligned F64s = %v", gotF)
	}
}

func TestNumericBadLength(t *testing.T) {
	if _, err := U32s(make([]byte, 3)); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("U32s(3 bytes): err = %v, want ErrCacheCorrupt", err)
	}
	if _, err := F64s(make([]byte, 12)); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("F64s(12 bytes): err = %v, want ErrCacheCorrupt", err)
	}
}

func TestBadMagic(t *testing.T) {
	data := build(t, 1, []byte("x"))
	if _, _, err := NewReader(data, "PGSSPROF"); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("wrong magic: err = %v, want ErrCacheCorrupt", err)
	}
	if !HasMagic(data, testMagic) {
		t.Fatal("HasMagic(own magic) = false")
	}
	if HasMagic(data, "PGSSPROF") {
		t.Fatal("HasMagic(other magic) = true")
	}
	if HasMagic(data[:4], testMagic) {
		t.Fatal("HasMagic(short data) = true")
	}
	if _, err := NewWriter(io.Discard, "short", 1); !errors.Is(err, pgsserrors.ErrInvalidConfig) {
		t.Fatalf("NewWriter(short magic): err = %v, want ErrInvalidConfig", err)
	}
}

func TestTruncation(t *testing.T) {
	data := build(t, 1, []byte("hello world"), []byte("frame two"))
	// Every strict prefix must fail with corruption (or hit EOF exactly at
	// a frame boundary after yielding fewer frames) — never panic, never
	// return wrong data.
	for cut := 0; cut < len(data); cut++ {
		r, _, err := NewReader(data[:cut], testMagic)
		if err != nil {
			if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
				t.Fatalf("cut=%d: header err = %v, want ErrCacheCorrupt", cut, err)
			}
			continue
		}
		frames := 0
		for {
			_, _, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
					t.Fatalf("cut=%d: frame err = %v, want ErrCacheCorrupt", cut, err)
				}
				break
			}
			frames++
		}
		if frames >= 2 {
			t.Fatalf("cut=%d: full frame count from truncated input", cut)
		}
	}
}

func TestCorruptPayload(t *testing.T) {
	data := build(t, 1, []byte("checksummed payload"))
	for bit := 0; bit < 8; bit++ {
		for off := headerSize + frameHeaderSize; off < len(data); off++ {
			bad := bytes.Clone(data)
			bad[off] ^= 1 << bit
			r, _, err := NewReader(bad, testMagic)
			if err != nil {
				t.Fatalf("header unexpectedly corrupt at off=%d", off)
			}
			_, payload, err := r.Next()
			if err == nil {
				// The flipped bit was in padding or the trailer's reserved
				// word — the payload itself must still be intact.
				if !bytes.Equal(payload, []byte("checksummed payload")) {
					t.Fatalf("off=%d bit=%d: silent payload corruption", off, bit)
				}
				continue
			}
			if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
				t.Fatalf("off=%d bit=%d: err = %v, want ErrCacheCorrupt", off, bit, err)
			}
		}
	}
}

func TestOversizedLength(t *testing.T) {
	data := build(t, 1, []byte("abc"))
	// Declare an absurd payload length; the reader must reject it without
	// allocating or slicing out of range.
	for _, size := range []uint64{1 << 40, math.MaxUint64, math.MaxUint64 - 7} {
		bad := bytes.Clone(data)
		for i := 0; i < 8; i++ {
			bad[headerSize+8+i] = byte(size >> (8 * i))
		}
		r, _, err := NewReader(bad, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Next(); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Fatalf("size=%d: err = %v, want ErrCacheCorrupt", size, err)
		}
	}
}

func TestMapFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "container.bin")
	data := build(t, 2, []byte("mapped"), U32sAsBytes([]uint32{10, 20, 30}))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := MapFile(path)
	if err != nil {
		t.Fatalf("MapFile: %v", err)
	}
	r, version, err := NewReader(mapped, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("version = %d, want 2", version)
	}
	_, p1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != "mapped" {
		t.Fatalf("payload = %q", p1)
	}
	_, p2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	u, err := U32s(p2)
	if err != nil {
		t.Fatal(err)
	}
	if u[0] != 10 || u[1] != 20 || u[2] != 30 {
		t.Fatalf("u32s = %v", u)
	}
	// The mapping is private: mutating it must not write through.
	mapped[len(mapped)-1] ^= 0xff
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, data) {
		t.Fatal("mutation through private mapping reached the file")
	}

	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := MapFile(empty)
	if err != nil {
		t.Fatalf("MapFile(empty): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("MapFile(empty) = %d bytes", len(got))
	}
	if _, err := MapFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("MapFile(missing) succeeded")
	}
}

// TestMapFileReleasable: the releasable mapping holds the file's bytes,
// releases cleanly, and for empty files (which are never mapped) there is
// no release.
func TestMapFileReleasable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "container.bin")
	data := build(t, 2, []byte("released"))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, release, err := MapFileReleasable(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mapped, data) {
		t.Fatal("mapped bytes differ from the file")
	}
	if release == nil {
		t.Fatal("MapFileReleasable returned no release for a mapped file")
	}
	if err := release(); err != nil {
		t.Fatalf("release: %v", err)
	}

	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, release, err := MapFileReleasable(empty)
	if err != nil || len(got) != 0 {
		t.Fatalf("MapFileReleasable(empty) = %d bytes, %v", len(got), err)
	}
	if release != nil {
		t.Fatal("MapFileReleasable(empty) returned a release for a buffer it never mapped")
	}
	if _, _, err := MapFileReleasable(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("MapFileReleasable(missing) succeeded")
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

func TestWriterErrorSticky(t *testing.T) {
	w, err := NewWriter(&failWriter{after: 2}, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Frame(1, []byte("payload")); err == nil {
		t.Fatal("Frame on failing writer succeeded")
	}
	if w.Err() == nil {
		t.Fatal("Err() = nil after failure")
	}
	if err := w.Frame(2, []byte("more")); err == nil {
		t.Fatal("Frame after sticky error succeeded")
	}
}
