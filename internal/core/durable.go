package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"avd/internal/scenario"
)

// DurableCheckpoint persists a campaign's Checkpoint across process
// crashes (DESIGN.md §14) in one file, <path>.journal: an 8-byte magic
// followed by CRC32-framed, length-prefixed batch records, fsynced per
// append.
//
// Every frame is [len u32be][crc32(payload) u32be][start u32be][payload]
// where the payload is itself a complete text-codec checkpoint holding
// one executed batch and start is the 0-based result index the batch
// begins at, so the framing layer needs no second codec. Open replays
// the frames into memory; a torn final frame — short header, short
// payload, or CRC mismatch, the fingerprints of a write cut short by
// SIGKILL or power loss — truncates the journal back to the last valid
// frame instead of failing the resume: the lost tail was never
// acknowledged, so the engine simply re-executes it.
//
// Nothing is written at <path> itself; a file there is refused by name
// and left as it is (refuseSnapshot).
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
	path    string
	journal *os.File
	count   int // results made durable so far
	closed  bool
}

// RecoveryInfo reports what OpenDurable found on disk.
type RecoveryInfo struct {
	// Frames / Results count the valid journal frames replayed and the
	// results they carried.
	Frames  int
	Results int
	// TornTail is true when the journal ended in an incomplete or
	// CRC-failing frame — an interrupted append — and the file was
	// truncated back to its last valid frame (TruncatedBytes dropped).
	TornTail       bool
	TruncatedBytes int64
}

// String summarizes the recovery for logs.
func (ri RecoveryInfo) String() string {
	s := fmt.Sprintf("%d results in %d frames", ri.Results, ri.Frames)
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
// A journal that was never a checkpoint (bad magic) fails with a
// *CheckpointError of kind CheckpointGarbage rather than being silently
// overwritten; a file at path itself fails too, untouched.
func OpenDurable(path string, space *scenario.Space) (*DurableCheckpoint, RecoveryInfo, error) {
	var info RecoveryInfo
	if err := refuseSnapshot(path, space); err != nil {
		return nil, info, err
	}
	journal, err := os.OpenFile(path+".journal", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("core: durable journal: %w", err)
	}
	ck := NewCheckpoint()
	if err := recoverJournal(journal, space, ck, &info); err != nil {
		journal.Close()
		return nil, info, err
	}
	return &DurableCheckpoint{ck: ck, path: path, journal: journal, count: ck.Len()}, info, nil
}

// refuseSnapshot fails without a space to decode frames against, and
// when a file sits at path: that is where the older snapshot-plus-journal
// layout folded its journal on Close, and the snapshot's results are in
// no frame, so a resume that ignored it would silently run them again.
// The file is neither read nor touched; the refusal is a CheckpointGarbage.
func refuseSnapshot(path string, space *scenario.Space) error {
	if space == nil {
		return fmt.Errorf("core: durable checkpoint needs a space")
	}
	_, err := os.Lstat(path)
	switch {
	case err == nil:
		return &CheckpointError{Kind: CheckpointGarbage, Line: 1, Err: fmt.Errorf("%s exists, but results live only in %s.journal; "+
			"it is a snapshot of the older snapshot-plus-journal layout: resume it with the build that wrote it, or use a new state directory", path, path)}
	case os.IsNotExist(err):
		return nil
	default:
		return fmt.Errorf("core: durable checkpoint: %w", err)
	}
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
		if int(start) != ck.Len() {
			// The start index is outside the CRC, so a flipped bit there
			// reads as a frame out of place: damage, not a torn write. Line
			// counts frames here.
			return 0, fmt.Errorf("core: durable journal frame %d (CRC valid, structural damage): %w", info.Frames+1,
				&CheckpointError{Kind: CheckpointCorrupt, Line: info.Frames + 1,
					Err: fmt.Errorf("frame starts at result %d, %d precede it", start, ck.Len())})
		}
		batch, err := decodeCheckpoint(bytes.NewReader(payload), space, len(payload)+1)
		if err != nil {
			// The CRC vouches for the bytes, so this is not a torn write:
			// the frame was fully written yet does not parse. Refuse to
			// guess.
			return 0, fmt.Errorf("core: durable journal frame %d (CRC valid): %w", info.Frames+1, err)
		}
		ck.results = append(ck.results, batch.results...)
		info.Results += batch.Len()
		info.Frames++
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

// Path returns the path the state is rooted at; the journal is
// Path()+".journal".
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

// Close releases the journal; every appended batch is already durable.
// The checkpoint remains readable via Checkpoint(); further Append calls
// fail.
func (d *DurableCheckpoint) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.journal.Close()
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
// tail is tolerated and reported in the RecoveryInfo; a missing journal
// is an error, since a shard that ran wrote one.
func ReadDurableResults(path string, space *scenario.Space) ([]Result, RecoveryInfo, error) {
	var info RecoveryInfo
	if err := refuseSnapshot(path, space); err != nil {
		return nil, info, err
	}
	data, err := os.ReadFile(path + ".journal")
	if err != nil {
		return nil, info, fmt.Errorf("core: durable journal: %w", err)
	}
	ck := NewCheckpoint()
	if _, err := readJournal(data, space, ck, &info); err != nil {
		return nil, info, err
	}
	return ck.results, info, nil
}
