package compress

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Binary serialization of compressed matrices for buffer-pool spill files.
// The point of spilling a compressed matrix is that the *compressed* bytes
// hit disk: the format writes dictionaries, codes and runs directly, never a
// decompressed cell image.

const serializeMagic = uint32(0x53445343) // "SDSC"

type binWriter struct {
	w   *bufio.Writer
	err error
}

func (b *binWriter) write(v any) {
	if b.err == nil {
		b.err = binary.Write(b.w, binary.LittleEndian, v)
	}
}

type binReader struct {
	r   *bufio.Reader
	err error
}

func (b *binReader) read(v any) {
	if b.err == nil {
		b.err = binary.Read(b.r, binary.LittleEndian, v)
	}
}

// Write serializes the compressed matrix.
func (c *CompressedMatrix) Write(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.write(serializeMagic)
	bw.write(int64(c.NumRows))
	bw.write(int64(c.NumCols))
	bw.write(int32(len(c.Groups)))
	for _, g := range c.Groups {
		switch t := g.(type) {
		case *DDCGroup:
			bw.write(uint8(EncDDC))
			bw.write(int32(t.Col))
			bw.write(int32(len(t.Dict)))
			bw.write(t.Dict)
			bw.write(t.Counts)
			if t.Codes8 != nil {
				bw.write(uint8(1))
				bw.write(int64(len(t.Codes8)))
				bw.write(t.Codes8)
			} else {
				bw.write(uint8(2))
				bw.write(int64(len(t.Codes16)))
				bw.write(t.Codes16)
			}
		case *RLEGroup:
			bw.write(uint8(EncRLE))
			bw.write(int32(t.Col))
			bw.write(int32(len(t.Values)))
			bw.write(t.Values)
			bw.write(t.Starts)
			bw.write(t.Lens)
		case *CoCodedGroup:
			bw.write(uint8(EncCoCoded))
			bw.write(int32(len(t.Cols)))
			for _, ci := range t.Cols {
				bw.write(int32(ci))
			}
			bw.write(int32(t.numVals()))
			bw.write(t.Dict)
			bw.write(t.Counts)
			if t.Codes8 != nil {
				bw.write(uint8(1))
				bw.write(int64(len(t.Codes8)))
				bw.write(t.Codes8)
			} else {
				bw.write(uint8(2))
				bw.write(int64(len(t.Codes16)))
				bw.write(t.Codes16)
			}
		case *SDCGroup:
			bw.write(uint8(EncSDC))
			bw.write(int32(t.Col))
			bw.write(int64(t.N))
			bw.write(t.Default)
			bw.write(int32(len(t.Dict)))
			bw.write(t.Dict)
			bw.write(t.Counts)
			bw.write(int64(len(t.Pos)))
			bw.write(t.Pos)
			bw.write(t.Codes)
		case *UncompressedGroup:
			bw.write(uint8(EncUncompressed))
			bw.write(int32(len(t.ColIdx)))
			for _, ci := range t.ColIdx {
				bw.write(int32(ci))
			}
			rows, cols := t.Data.Rows(), t.Data.Cols()
			bw.write(int64(rows))
			bw.write(int64(cols))
			// dense row-major cell image of just this group's columns
			for r := 0; r < rows; r++ {
				for cc := 0; cc < cols; cc++ {
					bw.write(t.Data.Get(r, cc))
				}
			}
		default:
			return fmt.Errorf("compress: cannot serialize column group %T", g)
		}
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// maxDictLen bounds a dictionary's entry count: codes are at most 16 bits.
const maxDictLen = 1 << 16

// Read deserializes a compressed matrix written by Write. Spill files are
// input from outside the process, so every length and count is checked
// against the header dimensions before it is used, and slices grow with the
// bytes actually read: a corrupt file is an error, never a panic or an
// allocation the input does not back.
func Read(r io.Reader) (*CompressedMatrix, error) {
	br := &binReader{r: bufio.NewReader(r)}
	var magic uint32
	br.read(&magic)
	if br.err == nil && magic != serializeMagic {
		return nil, fmt.Errorf("compress: bad magic %#x in compressed spill file", magic)
	}
	rows := readLen[int64](br, "row count", 0, math.MaxInt32)
	cols := readLen[int64](br, "column count", 0, math.MaxInt32)
	// every group covers at least one column
	ngroups := readLen[int32](br, "group count", 0, cols)
	out := &CompressedMatrix{NumRows: rows, NumCols: cols}
	for gi := 0; gi < ngroups && br.err == nil; gi++ {
		var tag uint8
		br.read(&tag)
		switch Encoding(tag) {
		case EncDDC:
			g := &DDCGroup{Col: readLen[int32](br, "column", 0, cols-1)}
			n := readLen[int32](br, "dictionary size", 0, maxDictLen)
			g.Dict = readSlice[float64](br, n)
			g.Counts = readSlice[int32](br, n)
			g.Codes8, g.Codes16 = readCodes(br, rows, n)
			out.Groups = append(out.Groups, g)
		case EncRLE:
			g := &RLEGroup{Col: readLen[int32](br, "column", 0, cols-1)}
			n := readLen[int32](br, "run count", 0, rows)
			g.Values = readSlice[float64](br, n)
			g.Starts = readSlice[int32](br, n)
			g.Lens = readSlice[int32](br, n)
			// runs tile the rows: each starts where the previous ended
			end := int64(0)
			for i := 0; i < len(g.Starts) && br.err == nil; i++ {
				if int64(g.Starts[i]) != end || g.Lens[i] < 1 {
					br.err = fmt.Errorf("compress: corrupt spill: run %d starts at row %d with length %d, want row %d", i, g.Starts[i], g.Lens[i], end)
				}
				end += int64(g.Lens[i])
			}
			if br.err == nil && end != int64(rows) {
				br.err = fmt.Errorf("compress: corrupt spill: runs cover %d of %d rows", end, rows)
			}
			out.Groups = append(out.Groups, g)
		case EncCoCoded:
			g := &CoCodedGroup{Cols: readColumns(br, cols)}
			n := readLen[int32](br, "dictionary size", 0, maxDictLen)
			g.Dict = readSlice[float64](br, n*len(g.Cols))
			g.Counts = readSlice[int32](br, n)
			g.Codes8, g.Codes16 = readCodes(br, rows, n)
			out.Groups = append(out.Groups, g)
		case EncSDC:
			g := &SDCGroup{Col: readLen[int32](br, "column", 0, cols-1), N: readLen[int64](br, "group rows", rows, rows)}
			br.read(&g.Default)
			n := readLen[int32](br, "dictionary size", 0, maxDictLen)
			g.Dict = readSlice[float64](br, n)
			g.Counts = readSlice[int32](br, n)
			npos := readLen[int64](br, "exception count", 0, rows)
			g.Pos = readSlice[int32](br, npos)
			g.Codes = readSlice[uint16](br, npos)
			checkCodes(br, g.Codes, n)
			for i := 0; i < len(g.Pos) && br.err == nil; i++ {
				if g.Pos[i] < 0 || int(g.Pos[i]) >= rows || (i > 0 && g.Pos[i] <= g.Pos[i-1]) {
					br.err = fmt.Errorf("compress: corrupt spill: exception position %d out of order or outside %d rows", g.Pos[i], rows)
				}
			}
			out.Groups = append(out.Groups, g)
		case EncUncompressed:
			idx := readColumns(br, cols)
			readLen[int64](br, "group rows", rows, rows)
			readLen[int64](br, "group columns", len(idx), len(idx))
			vals := readSlice[float64](br, rows*len(idx))
			if br.err != nil {
				return nil, br.err
			}
			blk := matrix.NewDenseFromSlice(rows, len(idx), vals)
			out.Groups = append(out.Groups, &UncompressedGroup{ColIdx: idx, Data: blk.ExamineAndApplySparsity()})
		default:
			if br.err == nil {
				return nil, fmt.Errorf("compress: unknown column-group tag %d", tag)
			}
		}
	}
	if br.err != nil {
		return nil, br.err
	}
	return out, nil
}

// readLen reads a T-typed length or index and checks lo <= v <= hi.
func readLen[T int32 | int64](b *binReader, what string, lo, hi int) int {
	var v T
	b.read(&v)
	if b.err == nil && (int64(v) < int64(lo) || int64(v) > int64(hi)) {
		b.err = fmt.Errorf("compress: corrupt spill: %s %d outside [%d, %d]", what, v, lo, hi)
	}
	if b.err != nil {
		return 0
	}
	return int(v)
}

// readSlice reads n fixed-size values in bounded chunks, so a length the
// input does not back fails at end of input instead of allocating up front.
func readSlice[T any](b *binReader, n int) []T {
	const chunk = 1 << 16
	out := make([]T, 0, min(n, chunk))
	for len(out) < n && b.err == nil {
		buf := make([]T, min(n-len(out), chunk))
		b.read(buf)
		out = append(out, buf...)
	}
	return out
}

// readColumns reads a group's column count and its column indexes.
func readColumns(b *binReader, cols int) []int {
	n := readLen[int32](b, "group width", 1, cols)
	var idx []int
	for len(idx) < n && b.err == nil {
		idx = append(idx, readLen[int32](b, "column", 0, cols-1))
	}
	return idx
}

// readCodes reads a dictionary-coded group's per-row codes (8 or 16 bits
// wide) and checks each against the dictionary size.
func readCodes(b *binReader, rows, dictLen int) ([]uint8, []uint16) {
	var width uint8
	b.read(&width)
	readLen[int64](b, "code count", rows, rows)
	switch {
	case b.err != nil:
		return nil, nil
	case width == 1:
		codes := readSlice[uint8](b, rows)
		checkCodes(b, codes, dictLen)
		return codes, nil
	case width == 2:
		codes := readSlice[uint16](b, rows)
		checkCodes(b, codes, dictLen)
		return nil, codes
	}
	b.err = fmt.Errorf("compress: corrupt spill: code width %d", width)
	return nil, nil
}

func checkCodes[T uint8 | uint16](b *binReader, codes []T, dictLen int) {
	for _, c := range codes {
		if b.err == nil && int(c) >= dictLen {
			b.err = fmt.Errorf("compress: corrupt spill: code %d outside a %d-entry dictionary", c, dictLen)
		}
	}
}

// WriteFile spills the compressed matrix to a file.
func (c *CompressedMatrix) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// ReadFile restores a compressed matrix from a spill file.
func ReadFile(path string) (*CompressedMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
