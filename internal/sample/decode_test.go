package sample

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// referenceStream encodes c field by field with reflective binary.Write —
// an encoder independent of the package's, pinning the stream layout.
func referenceStream(t *testing.T, c *Compressed, version uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	put([]uint32{ioMagic, version, uint32(c.Tree.Dim.Nx), uint32(len(c.Tree.Cells))})
	put(uint64(len(c.Samples)))
	put(c.Tree.EncodeMeta())
	if version == ioVersion32 {
		s32 := make([]float32, len(c.Samples))
		for i, v := range c.Samples {
			s32[i] = float32(v)
		}
		put(s32)
	} else {
		put(c.Samples)
	}
	return buf.Bytes()
}

// encodeTestFields returns filled compressed fields over several trees:
// uniform, adaptive policy trees, and a single-cell tree.
func encodeTestFields(t *testing.T) []*Compressed {
	t.Helper()
	var trees []*octree.Tree
	for _, mk := range []func() (*octree.Tree, error){
		func() (*octree.Tree, error) { return Uniform{Rate: 2, CellSize: 8}.Tree(grid.Cube(16)) },
		func() (*octree.Tree, error) { return Uniform{Rate: 8, CellSize: 8}.Tree(grid.Cube(8)) },
		func() (*octree.Tree, error) {
			return DefaultPolicy(grid.CubeAt(grid.Point{4, 12, 20}, 8), 8).Tree(grid.Cube(32))
		},
		func() (*octree.Tree, error) {
			return DefaultPolicy(grid.CubeAt(grid.Point{1, 30, 9}, 4), 16).Tree(grid.Cube(64))
		},
	} {
		tree, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	var out []*Compressed
	for ti, tree := range trees {
		c := NewCompressed(tree)
		for i := range c.Samples {
			c.Samples[i] = math.Sin(float64(i*(ti+3))) * 1e3
		}
		out = append(out, c)
	}
	return out
}

// TestEncodeBytesMatchesWriteTo pins the one-allocation encoder to the
// streaming writers and to an independent reflective encoding, at both
// precisions.
func TestEncodeBytesMatchesWriteTo(t *testing.T) {
	for i, c := range encodeTestFields(t) {
		got, err := c.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cap(got) {
			t.Errorf("tree %d: EncodeBytes len %d cap %d, want an exact-size buffer", i, len(got), cap(got))
		}
		var w bytes.Buffer
		n, err := c.WriteTo(&w)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(w.Len()) || !bytes.Equal(got, w.Bytes()) {
			t.Fatalf("tree %d: EncodeBytes differs from WriteTo (%d vs %d bytes)", i, len(got), w.Len())
		}
		if ref := referenceStream(t, c, ioVersion); !bytes.Equal(got, ref) {
			t.Fatalf("tree %d: float64 stream differs from the reference layout", i)
		}
		w.Reset()
		if _, err := c.WriteTo32(&w); err != nil {
			t.Fatal(err)
		}
		if ref := referenceStream(t, c, ioVersion32); !bytes.Equal(w.Bytes(), ref) {
			t.Fatalf("tree %d: float32 stream differs from the reference layout", i)
		}
	}
}

// TestDecodeRejectsLyingCounts checks the header counts against the buffer
// before anything is sized from them: a header promising more cells or
// samples than the buffer holds, or a buffer with trailing bytes, fails.
func TestDecodeRejectsLyingCounts(t *testing.T) {
	c := encodeTestFields(t)[0]
	stream, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func([]byte){
		"cells+1":     func(b []byte) { binary.LittleEndian.PutUint32(b[12:], uint32(len(c.Tree.Cells)+1)) },
		"cells huge":  func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<28) },
		"samples+1":   func(b []byte) { binary.LittleEndian.PutUint64(b[16:], uint64(len(c.Samples)+1)) },
		"samples-1":   func(b []byte) { binary.LittleEndian.PutUint64(b[16:], uint64(len(c.Samples)-1)) },
		"samples max": func(b []byte) { binary.LittleEndian.PutUint64(b[16:], math.MaxUint64) },
	} {
		b := bytes.Clone(stream)
		mut(b)
		if _, err := decodeCompressed(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := decodeCompressed(append(bytes.Clone(stream), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := decodeCompressed(stream); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
}

// TestAssemblerResultDoesNotAlias checks that a decoded result owns its
// memory: reusing the assembler for the next stream leaves it unchanged.
func TestAssemblerResultDoesNotAlias(t *testing.T) {
	fields := encodeTestFields(t)
	a := NewAssembler()
	var decoded []*Compressed
	for _, c := range fields {
		stream, err := c.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		a.Reset()
		chunks, err := ChunkStream(stream, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range chunks {
			if err := a.Add(ch); err != nil {
				t.Fatal(err)
			}
		}
		got, err := a.Compressed()
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, got)
	}
	for i, c := range fields {
		want, _ := c.EncodeBytes()
		got, err := decoded[i].EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result %d changed after the assembler was reused", i)
		}
	}
}

// wireSmallStream encodes a result shaped like the wire-small benchmark
// workload's: N=32, one k=8 box at [4,12)×[12,20)×[20,28), far rate 8.
func wireSmallStream(b *testing.B) (*Compressed, []byte) {
	tree, err := DefaultPolicy(grid.BoxAt(grid.Point{4, 12, 20}, 8, 8, 8), 8).Tree(grid.Cube(32))
	if err != nil {
		b.Fatal(err)
	}
	c := NewCompressed(tree)
	for i := range c.Samples {
		c.Samples[i] = math.Cos(float64(i))
	}
	stream, err := c.EncodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	return c, stream
}

// BenchmarkAssemblerCompressed times the client-side decode of one fully
// assembled wire-small result stream (validation included).
func BenchmarkAssemblerCompressed(b *testing.B) {
	_, stream := wireSmallStream(b)
	chunks, err := ChunkStream(stream, 0, DefaultChunkBytes)
	if err != nil {
		b.Fatal(err)
	}
	a := NewAssembler()
	for _, ch := range chunks {
		if err := a.Add(ch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Compressed(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBytes times the server-side encode of one wire-small
// result.
func BenchmarkEncodeBytes(b *testing.B) {
	c, stream := wireSmallStream(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeBytes(); err != nil {
			b.Fatal(err)
		}
	}
}
