package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzJournalRecover hardens crash recovery against damaged journals: a
// valid three-frame journal, cut short and with bits flipped, never
// panics either reader. Each returns a typed error or a prefix of the
// journaled results, and the read-only ReadDurableResults leaves the file
// as it found it and agrees with OpenDurable on the results and the
// RecoveryInfo; the journal OpenDurable repaired then reads clean. flips
// holds little-endian uint16 bit offsets into the cut journal.
func FuzzJournalRecover(f *testing.F) {
	space, err := Space(twoDimPlugins()...)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "campaign.ckpt")
	d, _, err := OpenDurable(path, space)
	if err != nil {
		f.Fatal(err)
	}
	run := pureRunner()
	for b := 0; b < 3; b++ {
		var batch []Result
		for i := 0; i < 4; i++ {
			batch = append(batch, run.Run(space.New(map[string]int64{"x": int64(b*4 + i), "y": int64(i)})))
		}
		d.Checkpoint().appendBatch(batch)
		if err := d.Append(batch); err != nil {
			f.Fatal(err)
		}
	}
	journal, err := os.ReadFile(path + ".journal")
	if err != nil {
		f.Fatal(err)
	}
	want := d.Checkpoint().Results()
	d.journal.Close()

	second := len(journalMagic) + frameHeader + int(binary.BigEndian.Uint32(journal[len(journalMagic):]))
	bit := func(byteOffset int) []byte { return binary.LittleEndian.AppendUint16(nil, uint16(8*byteOffset)) }
	f.Add(uint16(len(journal)), []byte(nil))
	f.Add(uint16(len(journal)-7), []byte(nil))
	f.Add(uint16(len(journal)), bit(second+frameHeader+5)) // a payload byte: the CRC fails
	f.Add(uint16(len(journal)), bit(second+frameHeader-1)) // the second frame's start index
	f.Add(uint16(len(journal)), bit(second+1))             // the second frame's length
	f.Add(uint16(len(journal)), bit(len(journalMagic)-1))  // the magic
	f.Fuzz(func(t *testing.T, cut uint16, flips []byte) {
		data := slices.Clone(journal[:min(int(cut), len(journal))])
		for i := 0; i+1 < len(flips) && len(data) > 0; i += 2 {
			b := int(binary.LittleEndian.Uint16(flips[i:])) % (8 * len(data))
			data[b/8] ^= 1 << (b % 8)
		}
		path := filepath.Join(t.TempDir(), "campaign.ckpt")
		if err := os.WriteFile(path+".journal", data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, info, readErr := ReadDurableResults(path, space)
		if after, err := os.ReadFile(path + ".journal"); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("ReadDurableResults changed the journal (%v)", err)
		}
		d, openInfo, openErr := OpenDurable(path, space)
		var ckErr *CheckpointError
		if readErr != nil || openErr != nil {
			if !errors.As(readErr, &ckErr) || !errors.As(openErr, &ckErr) {
				t.Fatalf("want a *CheckpointError from both readers: ReadDurableResults %v, OpenDurable %v", readErr, openErr)
			}
			return
		}
		defer d.journal.Close()
		if info != openInfo {
			t.Fatalf("ReadDurableResults reports %s, OpenDurable %s", info, openInfo)
		}
		gotFP, _ := FingerprintResults(got)
		openFP, _ := FingerprintResults(d.Checkpoint().Results())
		if gotFP != openFP {
			t.Fatalf("the readers recovered different results: %d vs %d", len(got), d.Len())
		}
		if wantFP, _ := FingerprintResults(want[:min(len(got), len(want))]); len(got) > len(want) || gotFP != wantFP {
			t.Fatalf("recovered %d results that are not a prefix of the %d journaled", len(got), len(want))
		}
		again, cleanInfo, err := ReadDurableResults(path, space)
		againFP, _ := FingerprintResults(again)
		if err != nil || cleanInfo.TornTail || againFP != gotFP {
			t.Fatalf("the repaired journal does not read clean: %v, %s", err, cleanInfo)
		}
	})
}

// FuzzCheckpointDecode hardens the checkpoint replay path against
// corrupt or adversarial files: decoding arbitrary bytes must never
// panic, and whenever arbitrary bytes do decode, the canonical
// re-encoding must be a fixed point (encode(decode(x)) decodes to the
// same checkpoint, byte for byte).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte("avd-checkpoint v1\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 17 0x1p-03 0x1.f4p+09 0x1.f4p+09 1234 0 2 \"seed\"\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 5 0x1p+00 0x0p+00 0x1.d4cp+12 500000000 1 9 \"mutate:x\"\nv 3 \"pbft/agreement\" \"nodes 0 and 1 committed different values at seq 7\"\n"))
	f.Add([]byte("not a checkpoint"))
	f.Add([]byte("avd-checkpoint v1\nv 1 \"inv\" \"violation before result\"\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 17 0x1p-03 0x1.f4p+09 0x1.f4p+09 1234 0 2 \"seed\"\ne 40 39 0 \"\"\nv 2 \"raft/election-safety\" \"two leaders in term 3\"\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 5 0x0p+00 0x0p+00 0x0p+00 0 0 0 \"mutate\"\ne 0 0 1 \"core: scenario exceeded step budget of 400000 events\"\n"))
	f.Add([]byte("avd-checkpoint v1\ne 1 1 0 \"extension before result\"\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 5 0x0p+00 0x0p+00 0x0p+00 0 0 0 \"g\"\ne 1 1 2 \"hung out of range\"\n"))
	f.Add([]byte("avd-checkpoint v1\nr 18446744073709551615 18446744073709551615 0x1p+00 0x0p+00 0x0p+00 -5 -1 0 \"\\\"quoted\\\"\"\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 17 0x1p-03 0x1.f4p+09 0x1.f4p+09 1234 0 2 \"seed\"\nc 14695981039346656037 8234717123 42\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 5 0x1p+00 0x0p+00 0x0p+00 0 0 0 \"cov:mutate:x\"\ne 1 1 0 \"\"\nc 18446744073709551615 1 4294967295\nv 1 \"raft/election-safety\" \"two leaders in term 3\"\n"))
	f.Add([]byte("avd-checkpoint v1\nc 1 2 3\n"))
	f.Add([]byte("avd-checkpoint v1\nr 0 5 0x1p+00 0x0p+00 0x0p+00 0 0 0 \"g\"\nc 1 2 99999999999\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		space, err := Space(twoDimPlugins()...)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(bytes.NewReader(data), space)
		if err != nil {
			return // malformed input rejected cleanly
		}
		var first bytes.Buffer
		if err := ck.Encode(&first); err != nil {
			t.Fatalf("encoding a decoded checkpoint failed: %v", err)
		}
		ck2, err := DecodeCheckpoint(bytes.NewReader(first.Bytes()), space)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := ck2.Encode(&second); err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical encoding is not a fixed point:\n%q\nvs\n%q", first.String(), second.String())
		}
		if ck2.Len() != ck.Len() {
			t.Fatalf("re-decode changed result count: %d vs %d", ck2.Len(), ck.Len())
		}
	})
}
