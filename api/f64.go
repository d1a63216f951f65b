package api

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// ParseF64Rows validates a binary query body held in memory and decodes
// it into rows. cols is the row length the receiver accepts and maxRows
// its largest row count. The header is checked against both, and
// against the body's length, before anything is allocated, so the rows
// are never larger than the body; then ReadF64Rows decodes it, and every
// value must be finite.
func ParseF64Rows(body []byte, cols, maxRows int) ([][]float64, error) {
	if err := f64Dims(body, cols, maxRows); err != nil {
		return nil, err
	}
	return ReadF64Rows(bytes.NewReader(body), cols, maxRows)
}

// f64ReadBuf is ReadF64Rows' read buffer: the most it holds beyond the
// decoded rows, whatever the header declares.
const f64ReadBuf = 32 << 10

// ReadF64Rows reads a binary query body from r to its end and decodes it
// into 1..maxRows rows of exactly cols finite values: the one decode
// loop of the format, which ParseF64Rows runs over a body in memory. The
// header is checked first. The values are then decoded through a fixed
// read buffer as they arrive, into row chunks that never hold more rows
// than have already arrived (the first row grows with its own bytes), so
// the decoded values take at most twice the bytes received, however many
// the header declares. The body must end right after the declared
// values: a shorter or longer one fails, as does a read error, which is
// returned as r gave it.
func ReadF64Rows(r io.Reader, cols, maxRows int) ([][]float64, error) {
	var head [f64HeaderLen]byte
	if n, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("api: binary body of %d bytes has no %d-byte header", n, f64HeaderLen)
		}
		return nil, err
	}
	rows, err := f64HeaderRows(head[:], cols, maxRows)
	if err != nil {
		return nil, err
	}
	bufLen := f64ReadBuf
	if values := uint64(rows) * uint64(cols); values < f64ReadBuf/8 {
		bufLen = 8*int(values) + 1 // room to see one byte too many
	}
	var (
		buf   = make([]byte, bufLen)
		held  int // bytes of a value split across reads, at buf's start
		got   = int64(f64HeaderLen)
		out   [][]float64 // the rows decoded so far
		row   []float64   // the row being decoded, in the room it has so far
		spare []float64   // the current chunk's rows not yet begun
	)
	for {
		n, err := r.Read(buf[held:])
		got += int64(n)
		p := buf[:held+n]
		for len(p) >= 8 && len(out) < rows {
			if len(row) == cap(row) {
				if len(out) == 0 {
					// Row 0 grows with its own bytes: no row is
					// allocated ahead of a row's worth of data.
					grown := make([]float64, len(row), min(cols, max(2*len(row), len(row)+len(p)/8)))
					row = grown[:copy(grown, row)]
				} else {
					if len(spare) == 0 {
						spare = make([]float64, min(len(out), rows-len(out))*cols)
					}
					row, spare = spare[:0:cols], spare[cols:]
				}
			}
			k := min(len(p)/8, cap(row)-len(row))
			dst := row[len(row) : len(row)+k]
			for i := range dst {
				b := binary.LittleEndian.Uint64(p[8*i:])
				if b&f64ExpMask == f64ExpMask {
					return nil, fmt.Errorf("api: row %d value %d is %v, not finite", len(out), len(row)+i, math.Float64frombits(b))
				}
				dst[i] = math.Float64frombits(b)
			}
			row, p = row[:len(row)+k], p[8*k:]
			if len(row) == cols {
				out, row = append(out, row), nil
			}
		}
		held = copy(buf, p)
		switch {
		case len(out) == rows && held > 0:
			return nil, fmt.Errorf("api: binary body of over %d bytes does not hold %d×%d values", 8+8*rows*cols, rows, cols)
		case len(out) == rows && err == io.EOF:
			return out, nil
		case err == io.EOF:
			return nil, fmt.Errorf("api: binary body of %d bytes does not hold %d×%d values", got, rows, cols)
		case err != nil:
			return nil, err
		}
	}
}

// f64Dims checks a binary body held in memory: the header is present
// and passes f64HeaderRows, and the body holds exactly rows·cols values.
// The length rule divides instead of multiplying, so no header can
// overflow it.
func f64Dims(body []byte, cols, maxRows int) error {
	if len(body) < f64HeaderLen {
		return fmt.Errorf("api: binary body of %d bytes has no %d-byte header", len(body), f64HeaderLen)
	}
	rows, err := f64HeaderRows(body, cols, maxRows)
	if err != nil {
		return err
	}
	payload := uint64(len(body) - f64HeaderLen)
	if payload%8 != 0 || payload/8/uint64(cols) != uint64(rows) || payload/8%uint64(cols) != 0 {
		return fmt.Errorf("api: binary body of %d bytes does not hold %d×%d values", len(body), rows, cols)
	}
	return nil
}

// f64HeaderRows checks a binary body's 8-byte header and returns its row
// count: its cols equals cols, and 1 ≤ rows ≤ maxRows.
func f64HeaderRows(head []byte, cols, maxRows int) (int, error) {
	rows := uint64(binary.LittleEndian.Uint32(head))
	gotCols := uint64(binary.LittleEndian.Uint32(head[4:]))
	if cols < 1 || gotCols != uint64(cols) {
		return 0, fmt.Errorf("api: binary body rows have %d values, want %d", gotCols, cols)
	}
	if rows < 1 || int64(rows) > int64(maxRows) {
		return 0, fmt.Errorf("api: binary body has %d rows, want 1..%d", rows, maxRows)
	}
	return int(rows), nil
}
