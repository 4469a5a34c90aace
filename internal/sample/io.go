package sample

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lowcomm3d/internal/octree"
)

// Binary serialization of compressed results, for checkpointing MASSIF
// runs and for shipping sub-domain results through files or sockets. The
// format mirrors the in-memory layout the paper describes: the 5-int
// octree metadata followed by the flat sample array.
//
//	magic   uint32  "LC3D"
//	version uint32  1
//	n       uint32  grid size (cubic)
//	cells   uint32  octree cell count
//	samples uint64  sample count
//	meta    [5·cells]int32
//	data    [samples]float64 (float32 in version 2)

const (
	ioMagic     = 0x4c433344 // "LC3D"
	ioVersion   = 1          // float64 samples
	ioVersion32 = 2          // float32 samples (paper §4: "compressed further using lower precision")
)

// headerBytes is the fixed stream header: four uint32 fields and the
// uint64 sample count.
const headerBytes = 24

// WriteTo serializes the compressed field at full (float64) precision. It
// implements io.WriterTo.
func (c *Compressed) WriteTo(w io.Writer) (int64, error) {
	return c.writeVersion(w, ioVersion)
}

// WriteTo32 serializes with float32 samples — half the bytes at ~1e-7
// relative precision, the "lower precision" variant the paper suggests for
// further compression.
func (c *Compressed) WriteTo32(w io.Writer) (int64, error) {
	return c.writeVersion(w, ioVersion32)
}

func (c *Compressed) writeVersion(w io.Writer, version uint32) (int64, error) {
	b, err := c.encode(version)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// EncodeBytes serializes the compressed field (full precision) into one
// exact-size buffer — the server-side snapshot a chunked, resumable stream
// is cut from.
func (c *Compressed) EncodeBytes() ([]byte, error) {
	return c.encode(ioVersion)
}

// encode lays the stream out in a single allocation of its exact size.
func (c *Compressed) encode(version uint32) ([]byte, error) {
	if len(c.Samples) != c.Tree.SampleCount() {
		return nil, fmt.Errorf("sample: %d samples stored, tree needs %d", len(c.Samples), c.Tree.SampleCount())
	}
	h := streamHeader{n: c.Tree.Dim.Nx, cells: len(c.Tree.Cells), samples: len(c.Samples), width: 8}
	if version == ioVersion32 {
		h.width = 4
	}
	le := binary.LittleEndian
	b := make([]byte, 0, h.size())
	b = le.AppendUint32(b, ioMagic)
	b = le.AppendUint32(b, version)
	b = le.AppendUint32(b, uint32(h.n))
	b = le.AppendUint32(b, uint32(h.cells))
	b = le.AppendUint64(b, uint64(h.samples))
	b = c.Tree.AppendMeta(b)
	if h.width == 4 {
		for _, v := range c.Samples {
			b = le.AppendUint32(b, math.Float32bits(float32(v)))
		}
	} else {
		for _, v := range c.Samples {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// streamHeader is the decoded, plausibility-checked stream header.
type streamHeader struct {
	n, cells, samples int
	width             int // bytes per sample: 8 (version 1) or 4 (version 2)
}

// size returns the exact stream length the header describes.
func (h streamHeader) size() int64 {
	return headerBytes + 4*octree.IntsPerCell*int64(h.cells) + int64(h.width)*int64(h.samples)
}

// parseHeader decodes and bounds-checks the first headerBytes of b.
func parseHeader(b []byte) (streamHeader, error) {
	le := binary.LittleEndian
	if m := le.Uint32(b); m != ioMagic {
		return streamHeader{}, fmt.Errorf("sample: bad magic %#x", m)
	}
	h := streamHeader{n: int(le.Uint32(b[8:])), cells: int(le.Uint32(b[12:]))}
	switch v := le.Uint32(b[4:]); v {
	case ioVersion:
		h.width = 8
	case ioVersion32:
		h.width = 4
	default:
		return streamHeader{}, fmt.Errorf("sample: unsupported version %d", v)
	}
	if h.n <= 0 || h.n > 1<<20 || h.cells <= 0 || h.cells > 1<<28 {
		return streamHeader{}, fmt.Errorf("sample: implausible header n=%d cells=%d", h.n, h.cells)
	}
	samples := le.Uint64(b[16:])
	if samples > 1<<40 {
		return streamHeader{}, fmt.Errorf("sample: implausible sample count %d", samples)
	}
	h.samples = int(samples)
	return h, nil
}

// decodeCompressed decodes one complete stream held in buf, reading the
// values in place. Every header count is checked against len(buf) before
// anything is sized from it, and the octree is validated in O(cells), so
// decoding costs O(len(buf)) time and memory whatever the header claims.
// The result shares no memory with buf.
func decodeCompressed(buf []byte) (*Compressed, error) {
	if len(buf) < headerBytes {
		return nil, fmt.Errorf("sample: reading header: %d of %d bytes: %w", len(buf), headerBytes, io.ErrUnexpectedEOF)
	}
	h, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	if size := h.size(); int64(len(buf)) != size {
		return nil, fmt.Errorf("sample: header describes a %d-byte stream (%d cells, %d samples), have %d bytes",
			size, h.cells, h.samples, len(buf))
	}
	le := binary.LittleEndian
	raw := buf[headerBytes:]
	meta := make([]int32, octree.IntsPerCell*h.cells)
	for i := range meta {
		meta[i] = int32(le.Uint32(raw[4*i:]))
	}
	tree, err := octree.DecodeMeta(h.n, meta, h.samples)
	if err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("sample: decoded tree invalid: %w", err)
	}
	raw = raw[4*len(meta):]
	samples := make([]float64, h.samples)
	if h.width == 4 {
		for i := range samples {
			samples[i] = float64(math.Float32frombits(le.Uint32(raw[4*i:])))
		}
	} else {
		for i := range samples {
			samples[i] = math.Float64frombits(le.Uint64(raw[8*i:]))
		}
	}
	return &Compressed{Tree: tree, Samples: samples}, nil
}

// ReadCompressed deserializes one compressed field written by WriteTo or
// WriteTo32, validating the octree structure before returning. It reads
// exactly the stream's bytes from r. A header is untrusted: the read
// buffer grows only with bytes actually received, so a forged count fails
// at EOF instead of sizing an allocation.
func ReadCompressed(r io.Reader) (*Compressed, error) {
	var head [headerBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("sample: reading header: %w", err)
	}
	h, err := parseHeader(head[:])
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(head[:])
	if _, err := io.CopyN(buf, r, h.size()-headerBytes); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("sample: reading stream: %w", err)
	}
	return decodeCompressed(buf.Bytes())
}
