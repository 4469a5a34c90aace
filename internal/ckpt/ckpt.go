// Package ckpt is the durable checkpoint store behind the self-healing
// distributed solve: versioned, CRC64-checksummed, atomically-written
// snapshot files for per-worker strain state and per-sub-domain
// convolution results.
//
// PR 1's in-memory strainCheckpoint makes a crashed iteration redoable by
// the survivors, but the crashed rank's own state dies with its goroutine
// — every fault permanently freezes its sub-domains. The paper's k³
// decomposition makes sub-domain work restartable and relocatable (each
// sub-domain convolves locally against the full-grid kernel, §3), and the
// recovery state is small: boxes × 6 Voigt components × k³ doubles per
// worker, never the global grid. This package persists exactly that, so a
// supervisor can respawn a replacement worker from the last durable
// deposit and rejoin it at the iteration barrier.
//
// On-disk snapshot format (little endian):
//
//	magic   uint32  "LCCK"
//	version uint32  1
//	worker  uint32  owning rank
//	iter    uint32  iteration the strain belongs to (deposited at its start)
//	boxes   uint32  sub-domain count
//	comps   uint32  components per box (grid.NumVoigt for strain)
//	perBox  uint64  values per (box, component) — k³ for cubic sub-domains
//	crc     uint64  CRC64/ECMA over the payload bytes
//	payload boxes·comps·perBox float64
//
// The decoder is hardened like sample.ReadCompressed: every count is
// bounds-checked and the payload is read in bounded chunks, so a forged
// header cannot trigger a large upfront allocation — a lying stream fails
// at EOF after at most one chunk. (ReadCompressed reaches the same bound
// by growing its buffer only with bytes received.)
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/telemetry"
)

const (
	magic   = 0x4c43434b // "LCCK"
	version = 1

	// maxBoxes/maxComps/maxPerBox bound what a header may claim before any
	// allocation happens. The limits are far above real deployments (a
	// 128³ sub-domain is 2²¹ values) but small enough that even a
	// worst-case first chunk stays cheap.
	maxBoxes  = 1 << 20
	maxComps  = 1 << 8
	maxPerBox = 1 << 27

	// chunk bounds per-read allocations while decoding untrusted streams
	// (64Ki float64 = 512 KiB at a time).
	chunk = 1 << 16
)

// crcTable is the ECMA polynomial table shared by encode and decode.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Snapshot is one worker's durable strain state: the deposit made at the
// start of iteration Iter, organized box → component → values.
type Snapshot struct {
	Worker int
	Iter   int
	Strain [][][]float64
}

// validateShape checks the snapshot is rectangular: every box holds the
// same component count and every component the same value count.
func (s *Snapshot) validateShape() (comps, perBox int, err error) {
	if len(s.Strain) == 0 {
		return 0, 0, fmt.Errorf("ckpt: empty snapshot")
	}
	comps = len(s.Strain[0])
	if comps == 0 {
		return 0, 0, fmt.Errorf("ckpt: box 0 has no components")
	}
	perBox = len(s.Strain[0][0])
	for b, box := range s.Strain {
		if len(box) != comps {
			return 0, 0, fmt.Errorf("ckpt: box %d has %d components, box 0 has %d", b, len(box), comps)
		}
		for v, data := range box {
			if len(data) != perBox {
				return 0, 0, fmt.Errorf("ckpt: box %d comp %d has %d values, want %d", b, v, len(data), perBox)
			}
		}
	}
	return comps, perBox, nil
}

// WriteSnapshot serializes the snapshot with its payload CRC. It returns
// the bytes written.
func WriteSnapshot(w io.Writer, s *Snapshot) (int64, error) {
	comps, perBox, err := s.validateShape()
	if err != nil {
		return 0, err
	}
	if s.Worker < 0 || s.Iter < 0 {
		return 0, fmt.Errorf("ckpt: negative worker %d or iter %d", s.Worker, s.Iter)
	}
	crc := crc64.New(crcTable)
	var scratch [8]byte
	for _, box := range s.Strain {
		for _, data := range box {
			for _, v := range data {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				crc.Write(scratch[:])
			}
		}
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	for _, h := range []uint32{magic, version, uint32(s.Worker), uint32(s.Iter), uint32(len(s.Strain)), uint32(comps)} {
		if err := write(h); err != nil {
			return n, err
		}
	}
	if err := write(uint64(perBox)); err != nil {
		return n, err
	}
	if err := write(crc.Sum64()); err != nil {
		return n, err
	}
	for _, box := range s.Strain {
		for _, data := range box {
			if err := write(data); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot, verifying
// the header bounds and the payload CRC. Allocation is bounded by bytes
// actually received, never by header claims alone.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	var header [6]uint32
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("ckpt: reading header: %w", err)
		}
	}
	if header[0] != magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", header[0])
	}
	if header[1] != version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", header[1])
	}
	worker, iter := int(header[2]), int(header[3])
	boxes, comps := int(header[4]), int(header[5])
	if boxes <= 0 || boxes > maxBoxes || comps <= 0 || comps > maxComps {
		return nil, fmt.Errorf("ckpt: implausible header boxes=%d comps=%d", boxes, comps)
	}
	var perBox64, wantCRC uint64
	if err := binary.Read(br, binary.LittleEndian, &perBox64); err != nil {
		return nil, fmt.Errorf("ckpt: reading per-box count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &wantCRC); err != nil {
		return nil, fmt.Errorf("ckpt: reading checksum: %w", err)
	}
	if perBox64 == 0 || perBox64 > maxPerBox {
		return nil, fmt.Errorf("ckpt: implausible per-box count %d", perBox64)
	}
	perBox := int(perBox64)
	crc := crc64.New(crcTable)
	var scratch [8]byte
	s := &Snapshot{Worker: worker, Iter: iter, Strain: make([][][]float64, 0, minInt(boxes, chunk))}
	for b := 0; b < boxes; b++ {
		box := make([][]float64, 0, comps)
		for v := 0; v < comps; v++ {
			// Chunked payload read: a forged (boxes, comps, perBox) triple
			// can claim terabytes; growth is bounded by data that arrives.
			data := make([]float64, 0, minInt(perBox, chunk))
			for remaining := perBox; remaining > 0; {
				c := minInt(remaining, chunk)
				buf := make([]float64, c)
				if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
					return nil, fmt.Errorf("ckpt: reading box %d comp %d: %w", b, v, err)
				}
				for _, x := range buf {
					binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(x))
					crc.Write(scratch[:])
				}
				data = append(data, buf...)
				remaining -= c
			}
			box = append(box, data)
		}
		s.Strain = append(s.Strain, box)
	}
	if got := crc.Sum64(); got != wantCRC {
		return nil, fmt.Errorf("ckpt: payload checksum mismatch: got %#x want %#x", got, wantCRC)
	}
	return s, nil
}

// Store is a directory of durable per-worker snapshots with atomic
// replacement: every save writes a temp file and renames it over the
// previous deposit, so readers only ever observe complete snapshots —
// a crash mid-write leaves the prior checkpoint intact.
type Store struct {
	dir string

	bytesC *obs.Counter        // ckpt.bytes_written
	savesC *obs.Counter        // ckpt.saves
	fileG  *obs.Gauge          // ckpt.max_file_bytes
	flight *telemetry.Recorder // per-rank checkpoint events, nil OK
}

// NewStore opens (creating if needed) the checkpoint directory. A non-nil
// trace records ckpt.bytes_written / ckpt.saves counters and the
// ckpt.max_file_bytes gauge.
func NewStore(dir string, tr *obs.Trace) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store: %w", err)
	}
	return &Store{
		dir:    dir,
		bytesC: tr.Counter("ckpt.bytes_written"),
		savesC: tr.Counter("ckpt.saves"),
		fileG:  tr.Gauge("ckpt.max_file_bytes"),
	}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetFlight attaches a flight recorder: every durable strain deposit is
// recorded as a per-rank checkpoint event, so a postmortem can name a
// dead rank's last durable checkpoint. A nil recorder disables recording.
func (s *Store) SetFlight(rec *telemetry.Recorder) { s.flight = rec }

func (s *Store) strainPath(worker int) string {
	return filepath.Join(s.dir, fmt.Sprintf("strain-%04d.ckpt", worker))
}

func (s *Store) resultPath(worker, box int) string {
	return filepath.Join(s.dir, fmt.Sprintf("result-%04d-%04d.lc3d", worker, box))
}

// writeAtomic writes via a temp file in the same directory and renames it
// into place, fsyncing the data first so the rename publishes a complete
// file.
func (s *Store) writeAtomic(path string, write func(io.Writer) (int64, error)) (int64, error) {
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("ckpt: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return n, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return n, fmt.Errorf("ckpt: publishing %s: %w", filepath.Base(path), err)
	}
	return n, nil
}

// SaveStrain durably deposits worker's strain for iter, replacing any
// earlier deposit atomically.
func (s *Store) SaveStrain(snap *Snapshot) error {
	n, err := s.writeAtomic(s.strainPath(snap.Worker), func(w io.Writer) (int64, error) {
		return WriteSnapshot(w, snap)
	})
	if err != nil {
		return err
	}
	s.bytesC.Add(n)
	s.savesC.Add(1)
	s.fileG.Max(n)
	s.flight.Checkpoint(snap.Worker, snap.Iter, n)
	return nil
}

// LoadStrain returns worker's last durable deposit, or (nil, nil) when the
// worker has never checkpointed.
func (s *Store) LoadStrain(worker int) (*Snapshot, error) {
	f, err := os.Open(s.strainPath(worker))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening strain %d: %w", worker, err)
	}
	defer f.Close()
	snap, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("ckpt: worker %d: %w", worker, err)
	}
	if snap.Worker != worker {
		return nil, fmt.Errorf("ckpt: strain file for worker %d claims worker %d", worker, snap.Worker)
	}
	return snap, nil
}

// SaveResult durably deposits one sub-domain's compressed convolution
// result (sample.Compressed binary format, atomic replacement).
func (s *Store) SaveResult(worker, box int, c *sample.Compressed) error {
	n, err := s.writeAtomic(s.resultPath(worker, box), c.WriteTo)
	if err != nil {
		return err
	}
	s.bytesC.Add(n)
	s.savesC.Add(1)
	s.fileG.Max(n)
	return nil
}

// LoadResult loads a sub-domain result deposited by SaveResult, or
// (nil, nil) when absent.
func (s *Store) LoadResult(worker, box int) (*sample.Compressed, error) {
	f, err := os.Open(s.resultPath(worker, box))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening result %d/%d: %w", worker, box, err)
	}
	defer f.Close()
	return sample.ReadCompressed(f)
}

// BytesWritten returns the total durable bytes this store has written
// (zero when the store was opened without a trace).
func (s *Store) BytesWritten() int64 { return s.bytesC.Value() }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
