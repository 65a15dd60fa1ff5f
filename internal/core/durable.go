package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"avd/internal/scenario"
)

// DurableCheckpoint persists a campaign's Checkpoint across process
// crashes (DESIGN.md §13). Two files back one logical checkpoint:
//
//	<path>          snapshot: a complete text-codec checkpoint, replaced
//	                atomically (write temp, fsync, rename, fsync dir)
//	<path>.journal  append log: an 8-byte magic followed by CRC32-framed,
//	                length-prefixed batch records, fsynced per append
//
// Every frame is [len u32be][crc32(payload) u32be][start u32be][payload]
// where the payload is itself a complete text-codec checkpoint holding
// one executed batch and start is the 0-based result index the batch
// begins at, so the framing layer needs no second codec and recovery is
// idempotent: a frame whose results are already covered by the snapshot
// (a crash landed between the snapshot rename and the journal reset) is
// skipped instead of double-counted. Open recovers snapshot + journal
// into memory; a torn final frame — short header, short payload, or CRC
// mismatch, the fingerprints of a write cut short by SIGKILL or power
// loss — truncates the journal back to the last valid frame instead of
// failing the resume: the lost tail was never acknowledged, so the
// engine simply re-executes it. Snapshot folds the journal into a fresh
// snapshot and empties it.
//
// DurableCheckpoint is safe for concurrent use.
const journalMagic = "avdjrnl1"

// maxFrameBytes bounds a single journal frame; a length prefix beyond it
// is treated as tail damage rather than an allocation request.
const maxFrameBytes = 64 << 20

// DurableCheckpoint is an on-disk Checkpoint with crash-safe appends.
type DurableCheckpoint struct {
	mu      sync.Mutex
	ck      *Checkpoint
	space   *scenario.Space
	path    string
	journal *os.File
	count   int // results made durable so far (snapshot + journal)
	closed  bool
}

// RecoveryInfo reports what OpenDurable found on disk.
type RecoveryInfo struct {
	// SnapshotResults is the number of results loaded from the snapshot
	// file (0 when absent).
	SnapshotResults int
	// JournalFrames / JournalResults count the valid journal frames
	// replayed on top of the snapshot and the results they carried.
	JournalFrames  int
	JournalResults int
	// TornTail is true when the journal ended in an incomplete or
	// CRC-failing frame — an interrupted append — and the file was
	// truncated back to its last valid frame (TruncatedBytes dropped).
	TornTail       bool
	TruncatedBytes int64
}

// Resumed is the total number of results recovered.
func (ri RecoveryInfo) Resumed() int { return ri.SnapshotResults + ri.JournalResults }

// String summarizes the recovery for logs.
func (ri RecoveryInfo) String() string {
	s := fmt.Sprintf("%d results (%d snapshot + %d journal in %d frames)",
		ri.Resumed(), ri.SnapshotResults, ri.JournalResults, ri.JournalFrames)
	if ri.TornTail {
		s += fmt.Sprintf(", torn tail truncated (%d bytes)", ri.TruncatedBytes)
	}
	return s
}

// OpenDurable opens (creating if absent) the durable checkpoint rooted
// at path, recovering any state a previous process left behind. The
// returned checkpoint's in-memory Checkpoint holds every recovered
// result, ready for WithCheckpoint replay; pair it with the engine via
// WithDurable so newly executed batches are journaled as they complete.
//
// A snapshot or journal that was never a checkpoint (bad header or
// magic) fails with a *CheckpointError of kind CheckpointGarbage rather
// than being silently overwritten.
func OpenDurable(path string, space *scenario.Space) (*DurableCheckpoint, RecoveryInfo, error) {
	ck, info, err := readSnapshot(path, space)
	if err != nil {
		return nil, info, err
	}
	journalPath := path + ".journal"
	journal, err := os.OpenFile(journalPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("core: durable journal %s: %w", journalPath, err)
	}
	if err := recoverJournal(journal, space, ck, &info); err != nil {
		journal.Close()
		return nil, info, err
	}
	return &DurableCheckpoint{ck: ck, space: space, path: path, journal: journal, count: ck.Len()}, info, nil
}

// readSnapshot loads the snapshot at path into a fresh checkpoint; an
// absent snapshot is fresh state.
func readSnapshot(path string, space *scenario.Space) (*Checkpoint, RecoveryInfo, error) {
	var info RecoveryInfo
	if space == nil {
		return nil, info, fmt.Errorf("core: durable checkpoint needs a space")
	}
	ck := NewCheckpoint()
	// Snapshot: atomically renamed into place, so it is either absent or
	// complete. A torn tail can still appear if the snapshot was copied
	// or the filesystem lied about durability; recover the valid prefix
	// like the journal does instead of refusing to resume.
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		snap, derr := DecodeCheckpoint(bytes.NewReader(data), space)
		if derr != nil {
			ckErr, ok := derr.(*CheckpointError)
			if !ok || ckErr.Kind != CheckpointTornTail {
				return nil, info, fmt.Errorf("core: durable snapshot %s: %w", path, derr)
			}
			snap = ckErr.Partial
			info.TornTail = true
		}
		ck.results = append(ck.results, snap.results...)
		info.SnapshotResults = len(ck.results)
	case os.IsNotExist(err):
		// Fresh state.
	default:
		return nil, info, fmt.Errorf("core: durable snapshot %s: %w", path, err)
	}
	return ck, info, nil
}

// frameHeader is a journal frame's [len][crc32][start] prefix.
const frameHeader = 12

// readJournal replays the frames of journal bytes data into ck and
// returns the length of their valid prefix; the bytes after it are a torn
// tail, counted in info. Data shorter than the magic is a creation cut
// short before the stamp landed, with a valid prefix of 0.
func readJournal(data []byte, space *scenario.Space, ck *Checkpoint, info *RecoveryInfo) (int, error) {
	valid := 0
	switch {
	case len(data) < len(journalMagic):
	case string(data[:len(journalMagic)]) != journalMagic:
		return 0, &CheckpointError{Kind: CheckpointGarbage, Line: 1,
			Err: fmt.Errorf("journal magic %q, want %q", data[:len(journalMagic)], journalMagic)}
	default:
		valid = len(journalMagic)
	}
	for valid > 0 && len(data)-valid >= frameHeader {
		header := data[valid : valid+frameHeader]
		length := binary.BigEndian.Uint32(header[:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		start := binary.BigEndian.Uint32(header[8:])
		if length == 0 || length > maxFrameBytes || uint64(len(data)-valid-frameHeader) < uint64(length) {
			break // nonsense length or torn payload: tail damage
		}
		payload := data[valid+frameHeader : valid+frameHeader+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn or bit-rotted frame
		}
		batch, err := DecodeCheckpoint(bytes.NewReader(payload), space)
		if err != nil {
			// The CRC vouches for the bytes, so this is not a torn write:
			// the frame was fully written yet does not parse. Refuse to
			// guess.
			return 0, fmt.Errorf("core: durable journal frame %d (CRC valid): %w", info.JournalFrames+1, err)
		}
		switch {
		case int(start) == len(ck.results):
			ck.results = append(ck.results, batch.results...)
			info.JournalResults += batch.Len()
		case int(start)+batch.Len() <= len(ck.results):
			// Already covered by the snapshot: a crash landed between the
			// snapshot rename and the journal reset. Skip the replay.
		default:
			// The start index is outside the CRC, so a flipped bit there
			// reads as a frame out of place: damage, not a torn write. Line
			// counts frames here.
			return 0, fmt.Errorf("core: durable journal frame %d (CRC valid, structural damage): %w", info.JournalFrames+1,
				&CheckpointError{Kind: CheckpointCorrupt, Line: info.JournalFrames + 1, Recovered: ck.Len(), Partial: ck,
					Err: fmt.Errorf("frame starts at result %d", start)})
		}
		info.JournalFrames++
		valid += frameHeader + int(length)
	}
	if len(data) > valid {
		info.TornTail = true
		info.TruncatedBytes += int64(len(data) - valid)
	}
	return valid, nil
}

// recoverJournal replays journal frames into ck and truncates a torn tail
// back to the last valid frame, restamping the magic when nothing valid
// is left. On return the file offset is at the end of the valid prefix,
// ready for appends.
func recoverJournal(f *os.File, space *scenario.Space, ck *Checkpoint, info *RecoveryInfo) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("core: durable journal: %w", err)
	}
	valid, err := readJournal(data, space, ck, info)
	if err != nil {
		return err
	}
	if valid > 0 && valid == len(data) {
		return nil // clean end; ReadAll left the offset there
	}
	if err := f.Truncate(int64(valid)); err != nil {
		return fmt.Errorf("core: durable journal truncate: %w", err)
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		return fmt.Errorf("core: durable journal: %w", err)
	}
	if valid == 0 {
		// Fresh, or a creation cut short: stamp the magic.
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			return fmt.Errorf("core: durable journal: %w", err)
		}
	}
	return f.Sync()
}

// Checkpoint returns the in-memory checkpoint backed by this durable
// state; hand it to WithCheckpoint (or use WithDurable, which wires both
// the replay and the journal sink).
func (d *DurableCheckpoint) Checkpoint() *Checkpoint { return d.ck }

// Path returns the snapshot path the state is rooted at.
func (d *DurableCheckpoint) Path() string { return d.path }

// Len returns the number of results currently held.
func (d *DurableCheckpoint) Len() int { return d.ck.Len() }

// Append journals one executed batch: frame, write, fsync. The batch is
// durable once Append returns. Append does NOT touch the in-memory
// Checkpoint — the engine already did via WithCheckpoint — so wiring
// both through WithDurable keeps memory and disk in lockstep.
func (d *DurableCheckpoint) Append(batch []Result) error {
	if len(batch) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("core: durable checkpoint %s: append after close", d.path)
	}
	var buf bytes.Buffer
	if err := (&Checkpoint{results: batch}).Encode(&buf); err != nil {
		return fmt.Errorf("core: durable append: %w", err)
	}
	payload := buf.Bytes()
	var header [frameHeader]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(header[8:], uint32(d.count))
	if _, err := d.journal.Write(header[:]); err != nil {
		return fmt.Errorf("core: durable append: %w", err)
	}
	if _, err := d.journal.Write(payload); err != nil {
		return fmt.Errorf("core: durable append: %w", err)
	}
	if err := d.journal.Sync(); err != nil {
		return fmt.Errorf("core: durable append: %w", err)
	}
	d.count += len(batch)
	return nil
}

// Snapshot folds the full in-memory checkpoint into a fresh snapshot
// file — write temp, fsync, rename over <path>, fsync the directory —
// then empties the journal. A crash at any point leaves either the old
// (snapshot, journal) pair or the new one, never a mix that loses
// acknowledged results.
func (d *DurableCheckpoint) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("core: durable checkpoint %s: snapshot after close", d.path)
	}
	return d.snapshotLocked()
}

func (d *DurableCheckpoint) snapshotLocked() error {
	// The in-memory checkpoint is the snapshot's source of truth; if it
	// lags what Append already journaled (the caller broke the
	// WithDurable contract of memory-first, journal-second), writing it
	// out would shrink durable state. Refuse.
	if d.ck.Len() < d.count {
		return fmt.Errorf("core: durable snapshot: in-memory checkpoint holds %d results but %d are journaled (append batches to the checkpoint before Append)", d.ck.Len(), d.count)
	}
	tmp := d.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: durable snapshot: %w", err)
	}
	if err := d.ck.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: durable snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: durable snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: durable snapshot: %w", err)
	}
	if err := os.Rename(tmp, d.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: durable snapshot: %w", err)
	}
	syncDir(filepath.Dir(d.path))
	// The journal's results now live in the snapshot; reset it to just
	// the magic. A crash between the rename and this truncate leaves the
	// old frames behind a newer snapshot — their start indices mark them
	// as covered, so the next recovery skips instead of double-counting.
	if err := d.journal.Truncate(int64(len(journalMagic))); err != nil {
		return fmt.Errorf("core: durable snapshot: journal reset: %w", err)
	}
	if _, err := d.journal.Seek(int64(len(journalMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("core: durable snapshot: journal reset: %w", err)
	}
	d.count = d.ck.Len()
	return d.journal.Sync()
}

// Close snapshots the final state and releases the journal. The
// checkpoint remains readable via Checkpoint(); further Append or
// Snapshot calls fail.
func (d *DurableCheckpoint) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	err := d.snapshotLocked()
	d.closed = true
	if cerr := d.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
}

// ReadDurableResults loads the results of a durable checkpoint without
// opening it for writing and without truncating anything — the
// supervisor's merge step reads finished shards this way. A torn journal
// tail is tolerated and reported in the RecoveryInfo.
func ReadDurableResults(path string, space *scenario.Space) ([]Result, RecoveryInfo, error) {
	ck, info, err := readSnapshot(path, space)
	if err != nil {
		return nil, info, err
	}
	data, err := os.ReadFile(path + ".journal")
	if err != nil {
		if os.IsNotExist(err) {
			return ck.results, info, nil
		}
		return nil, info, fmt.Errorf("core: durable journal: %w", err)
	}
	if _, err := readJournal(data, space, ck, &info); err != nil {
		return nil, info, err
	}
	return ck.results, info, nil
}
