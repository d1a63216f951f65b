package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// MediaTypeF64 is the Content-Type of a binary query body (v2.3). The
// two query endpoints, POST /v2/sessions/{id}/query and
// POST /v2/sessions/{id}/queries, accept it in place of the JSON
// QueryRequest / QueryBatchRequest; every other endpoint, every
// response and every error envelope stays JSON. The body is
//
//	[u32 LE rows][u32 LE cols][rows·cols float64, IEEE-754 LE, row-major]
//
// with exactly one row on /query and 1..N equal-length rows on
// /queries. It carries no checksum: HTTP already frames the body, and
// the exact-length rule rejects a truncated or padded body as JSON's
// grammar does. Every value must be finite — JSON cannot carry NaN or
// ±Inf, so both encodings accept the same inputs and a server answers
// them with the same bytes.
const MediaTypeF64 = "application/x-xbarsec-f64"

const (
	f64HeaderLen = 8
	// f64ExpMask selects the IEEE-754 exponent bits; all of them set
	// marks ±Inf or NaN.
	f64ExpMask = 0x7ff << 52
)

// AppendF64Rows appends the binary encoding of rows to dst. It fails,
// returning dst unchanged, when the format cannot carry rows
// faithfully: no rows, empty or ragged rows, a dimension beyond
// uint32, or a non-finite value. A caller falls back to the JSON body
// then, so the server's answer to the call stays what it always was.
func AppendF64Rows(dst []byte, rows [][]float64) ([]byte, error) {
	if len(rows) == 0 {
		return dst, errors.New("api: binary body needs at least one row")
	}
	cols := len(rows[0])
	if cols == 0 || uint64(len(rows)) > math.MaxUint32 || uint64(cols) > math.MaxUint32 {
		return dst, fmt.Errorf("api: binary body cannot carry %d rows of %d values", len(rows), cols)
	}
	for i, row := range rows {
		if len(row) != cols {
			return dst, fmt.Errorf("api: row %d has %d values, row 0 has %d", i, len(row), cols)
		}
	}
	start := len(dst)
	dst = slices.Grow(dst, f64HeaderLen+8*len(rows)*cols)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cols))
	for i, row := range rows {
		for j, v := range row {
			b := math.Float64bits(v)
			if b&f64ExpMask == f64ExpMask {
				return dst[:start], fmt.Errorf("api: row %d value %d is %v, not finite", i, j, v)
			}
			dst = binary.LittleEndian.AppendUint64(dst, b)
		}
	}
	return dst, nil
}

// ParseF64Rows validates a binary query body and decodes it into rows
// that share one slab. cols is the row length the receiver accepts and
// maxRows its largest row count. The header is checked against both,
// and against the body's length, before anything is allocated, so the
// slab is never larger than the body; then every value must be finite.
func ParseF64Rows(body []byte, cols, maxRows int) ([][]float64, error) {
	rows, err := f64Dims(body, cols, maxRows)
	if err != nil {
		return nil, err
	}
	slab := make([]float64, rows*cols)
	for k := range slab {
		b := binary.LittleEndian.Uint64(body[f64HeaderLen+8*k:])
		if b&f64ExpMask == f64ExpMask {
			return nil, fmt.Errorf("api: row %d value %d is %v, not finite", k/cols, k%cols, math.Float64frombits(b))
		}
		slab[k] = math.Float64frombits(b)
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i] = slab[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out, nil
}

// f64Dims checks a binary body's header and returns its row count: the
// header is present, its cols equals cols, 1 ≤ rows ≤ maxRows, and the
// body holds exactly rows·cols values. The length rule divides instead
// of multiplying, so no header can overflow it.
func f64Dims(body []byte, cols, maxRows int) (int, error) {
	if len(body) < f64HeaderLen {
		return 0, fmt.Errorf("api: binary body of %d bytes has no %d-byte header", len(body), f64HeaderLen)
	}
	rows := uint64(binary.LittleEndian.Uint32(body))
	gotCols := uint64(binary.LittleEndian.Uint32(body[4:]))
	if cols < 1 || gotCols != uint64(cols) {
		return 0, fmt.Errorf("api: binary body rows have %d values, want %d", gotCols, cols)
	}
	if rows < 1 || int64(rows) > int64(maxRows) {
		return 0, fmt.Errorf("api: binary body has %d rows, want 1..%d", rows, maxRows)
	}
	payload := uint64(len(body) - f64HeaderLen)
	if payload%8 != 0 || payload/8/gotCols != rows || payload/8%gotCols != 0 {
		return 0, fmt.Errorf("api: binary body of %d bytes does not hold %d×%d values", len(body), rows, gotCols)
	}
	return int(rows), nil
}
