package api

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// f64Header builds a bare [rows][cols] header.
func f64Header(rows, cols uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, rows)
	return binary.LittleEndian.AppendUint32(b, cols)
}

func TestF64RoundTrip(t *testing.T) {
	rows := [][]float64{
		{1, -2.5, math.Copysign(0, -1)},
		{math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64},
	}
	body, err := AppendF64Rows([]byte("prefix"), rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, []byte("prefix")) || len(body) != len("prefix")+8+6*8 {
		t.Fatalf("append-style encoding lost the prefix or mis-sized: %d bytes", len(body))
	}
	body = body[len("prefix"):]
	if !bytes.Equal(body[:8], f64Header(2, 3)) {
		t.Fatalf("header = % x", body[:8])
	}
	got, err := ParseF64Rows(body, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for j := range rows[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(rows[i][j]) {
				t.Fatalf("[%d][%d] = %v, want %v bit for bit", i, j, got[i][j], rows[i][j])
			}
		}
	}
	// The rows may share a chunk, but a row can never grow into its
	// neighbour.
	_ = append(got[0], 99)
	if cap(got[0]) != 3 || got[1][0] != math.SmallestNonzeroFloat64 {
		t.Fatal("appending to row 0 reached row 1")
	}
}

func TestAppendF64RowsRefuses(t *testing.T) {
	cases := map[string][][]float64{
		"no rows":   nil,
		"empty row": {{}},
		"ragged":    {{1, 2}, {3}},
		"NaN":       {{1, math.NaN()}},
		"+Inf":      {{math.Inf(1)}},
		"-Inf":      {{0}, {math.Inf(-1)}},
	}
	for name, rows := range cases {
		dst := []byte("keep")
		out, err := AppendF64Rows(dst, rows)
		if err == nil {
			t.Errorf("%s: encoded", name)
		}
		if string(out) != "keep" {
			t.Errorf("%s: dst changed to %q", name, out)
		}
	}
}

func TestParseF64RowsValidation(t *testing.T) {
	valid, err := AppendF64Rows(nil, [][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	nan := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(nan[8+3*8:], math.Float64bits(math.NaN()))
	inf := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(inf[8:], math.Float64bits(math.Inf(-1)))
	cases := []struct {
		name          string
		body          []byte
		cols, maxRows int
		want          string
	}{
		{"no header", valid[:7], 2, 4, "header"},
		{"wrong cols", valid, 3, 4, "want 3"},
		{"zero rows", f64Header(0, 2), 2, 4, "0 rows"},
		{"too many rows", valid, 2, 1, "want 1..1"},
		{"truncated", valid[:len(valid)-1], 2, 4, "does not hold"},
		{"short a row", valid[:len(valid)-16], 2, 4, "does not hold"},
		{"trailing", append(bytes.Clone(valid), 0), 2, 4, "does not hold"},
		{"trailing row", append(bytes.Clone(valid), make([]byte, 16)...), 2, 4, "does not hold"},
		{"NaN", nan, 2, 4, "row 1 value 1 is NaN"},
		{"-Inf", inf, 2, 4, "row 0 value 0 is -Inf"},
		{"overflowing header", f64Header(math.MaxUint32, math.MaxUint32), math.MaxUint32, math.MaxInt, "does not hold"},
	}
	for _, tc := range cases {
		rows, err := ParseF64Rows(tc.body, tc.cols, tc.maxRows)
		if err == nil || rows != nil {
			t.Errorf("%s: accepted (%d rows)", tc.name, len(rows))
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %q, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParseF64RowsRejectsBeforeAllocating pins that a header claiming
// more values than the body holds costs only its error message: the
// rows are allocated after the length check, so no header can make the
// parser reserve memory the sender did not send. ReadF64Rows cannot see
// the length up front, so it must allocate only with the bytes that
// arrive: one row of 2^32 − 1 values, allocated ahead of its bytes,
// would be 32 GiB.
func TestParseF64RowsRejectsBeforeAllocating(t *testing.T) {
	perCall := func(parse func() error) uint64 {
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			if parse() == nil {
				t.Fatal("accepted a header of 4096 rows on a 72-byte body")
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	// 4096 rows of 784 values would be 25 MiB.
	body := append(f64Header(4096, 784), make([]byte, 64)...)
	if per := perCall(func() error {
		_, err := ParseF64Rows(body, 784, 4096)
		return err
	}); per > 1024 {
		t.Fatalf("each ParseF64Rows rejection allocated %d bytes", per)
	}
	body = append(f64Header(4096, math.MaxUint32), make([]byte, 64)...)
	if per := perCall(func() error {
		_, err := ReadF64Rows(bytes.NewReader(body), math.MaxUint32, 4096)
		return err
	}); per >= 64<<10 {
		t.Fatalf("each ReadF64Rows rejection allocated %d bytes", per)
	}
}

// FuzzParseF64Rows drives the binary query body parser, the server's
// first contact with a binary request, with arbitrary bytes. It must
// never panic; it must reject any header whose rows × cols disagrees
// with the body length in f64Dims, before the rows are allocated; it
// must accept only finite values; and every accepted body must
// re-encode to the same bytes. ReadF64Rows, reading the same bytes as
// they arrive through a reader that returns half of each request, must
// fail exactly where ParseF64Rows fails and otherwise return the same
// rows bit for bit. The committed corpus lives in
// testdata/fuzz/FuzzParseF64Rows.
func FuzzParseF64Rows(f *testing.F) {
	f.Add(append(f64Header(1, 1), make([]byte, 8)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		// Ask for the header's own cols (at least 1) and any row count,
		// so only the length and finiteness rules can reject.
		var rows, cols uint64
		if len(body) >= 8 {
			rows = uint64(binary.LittleEndian.Uint32(body))
			cols = uint64(binary.LittleEndian.Uint32(body[4:]))
		}
		wantCols := max(int(cols), 1)
		const maxRows = math.MaxUint32
		consistent := len(body) >= 8 && cols >= 1 && rows >= 1 &&
			(len(body)-8)%8 == 0 && uint64(len(body)-8)/8 == rows*cols
		if !consistent && f64Dims(body, wantCols, maxRows) == nil {
			t.Fatalf("header %d×%d passed the pre-allocation check on a %d-byte body", rows, cols, len(body))
		}
		got, err := ParseF64Rows(body, wantCols, maxRows)
		streamed, streamErr := ReadF64Rows(iotest.HalfReader(bytes.NewReader(body)), wantCols, maxRows)
		if (err == nil) != (streamErr == nil) {
			t.Fatalf("ParseF64Rows err %v, ReadF64Rows err %v", err, streamErr)
		}
		if len(streamed) != len(got) {
			t.Fatalf("ReadF64Rows read %d rows, ParseF64Rows %d", len(streamed), len(got))
		}
		for i, row := range got {
			for j, v := range row {
				if math.Float64bits(streamed[i][j]) != math.Float64bits(v) {
					t.Fatalf("[%d][%d]: ReadF64Rows %v, ParseF64Rows %v", i, j, streamed[i][j], v)
				}
			}
		}
		if err != nil {
			if consistent && allFiniteBits(body[8:]) {
				t.Fatalf("rejected a well-formed %d×%d body: %v", rows, cols, err)
			}
			return
		}
		for i, row := range got {
			for j, v := range row {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("accepted non-finite [%d][%d] = %v", i, j, v)
				}
			}
		}
		again, err := AppendF64Rows(nil, got)
		if err != nil {
			t.Fatalf("accepted rows do not re-encode: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("re-encoding differs:\n got % x\nwant % x", again, body)
		}
	})
}

// allFiniteBits reports whether every 8-byte value in p is finite.
func allFiniteBits(p []byte) bool {
	for ; len(p) >= 8; p = p[8:] {
		if binary.LittleEndian.Uint64(p)&f64ExpMask == f64ExpMask {
			return false
		}
	}
	return true
}
