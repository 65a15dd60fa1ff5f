package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"avd/internal/oracle"
	"avd/internal/scenario"
)

// The checkpoint wire format is a line-oriented text encoding, one
// result per "r" line followed by one "v" line per violation:
//
//	avd-checkpoint v1
//	r <key-hi> <key-lo> <impact> <tput> <baseline> <latency-ns> <crashed> <views> <generator>
//	e <injected-crashes> <restarts> <hung> <error>
//	c <timeline> <behaviors> <behavior-count>
//	v <count> <invariant> <detail>
//
// The optional "e" extension line carries the fault-vocabulary-v2 and
// degraded-test fields; it is written only when one of them is non-zero,
// so checkpoints of campaigns that never arm the new faults are
// byte-identical to the v1 encoding (the r line itself is frozen at nine
// fields). The optional "c" line carries the run's coverage digest under
// the same contract: written only when the digest is non-zero, so
// checkpoints written before the coverage signal existed decode — and
// re-encode — unchanged.
//
// Floats are hex-formatted (strconv 'x'), so decoding reproduces every
// bit and a decoded checkpoint replays through an Engine exactly like
// the in-memory original. Scenarios travel as their CompactKey words
// and are rebuilt against the space the decoder is given; strings are
// strconv-quoted.
const checkpointHeader = "avd-checkpoint v1"

// Encode writes the checkpoint's results in dispatch order. A campaign
// that should survive process restarts encodes its checkpoint after (or
// during) a run and later rebuilds it with DecodeCheckpoint to resume.
func (c *Checkpoint) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, checkpointHeader); err != nil {
		return err
	}
	for _, res := range c.Results() {
		hi, lo := res.Scenario.Compact().Words()
		_, err := fmt.Fprintf(bw, "r %d %d %s %s %s %d %d %d %s\n",
			hi, lo,
			strconv.FormatFloat(res.Impact, 'x', -1, 64),
			strconv.FormatFloat(res.Throughput, 'x', -1, 64),
			strconv.FormatFloat(res.BaselineThroughput, 'x', -1, 64),
			int64(res.AvgLatency), res.CrashedReplicas, res.ViewChanges,
			strconv.Quote(res.Generator))
		if err != nil {
			return err
		}
		if res.InjectedCrashes != 0 || res.Restarts != 0 || res.Hung || res.Error != "" {
			hung := 0
			if res.Hung {
				hung = 1
			}
			if _, err := fmt.Fprintf(bw, "e %d %d %d %s\n",
				res.InjectedCrashes, res.Restarts, hung, strconv.Quote(res.Error)); err != nil {
				return err
			}
		}
		if !res.Coverage.IsZero() {
			if _, err := fmt.Fprintf(bw, "c %d %d %d\n",
				res.Coverage.Timeline, res.Coverage.Behaviors, res.Coverage.BehaviorCount); err != nil {
				return err
			}
		}
		for _, v := range res.Violations {
			if _, err := fmt.Fprintf(bw, "v %d %s %s\n",
				v.Count, strconv.Quote(v.Invariant), strconv.Quote(v.Detail)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// CheckpointErrorKind classifies why checkpoint input failed to decode:
// a file that was never a checkpoint, or one damaged past its header.
type CheckpointErrorKind int

const (
	// CheckpointGarbage: the input does not start with the checkpoint
	// header — it is not (and never was) a checkpoint.
	CheckpointGarbage CheckpointErrorKind = iota
	// CheckpointCorrupt: a record after the header is malformed.
	CheckpointCorrupt
)

// String names the kind for error messages.
func (k CheckpointErrorKind) String() string {
	switch k {
	case CheckpointGarbage:
		return "garbage"
	case CheckpointCorrupt:
		return "corrupt"
	default:
		return "unknown"
	}
}

// CheckpointError is the typed failure of DecodeCheckpoint and of durable
// state no resume reads: Kind says what went wrong and Line locates it.
type CheckpointError struct {
	Kind CheckpointErrorKind
	Line int
	Err  error
}

// Error implements error.
func (e *CheckpointError) Error() string {
	if e.Kind == CheckpointGarbage {
		return fmt.Sprintf("core: checkpoint line %d: not a checkpoint (%v)", e.Line, e.Err)
	}
	return fmt.Sprintf("core: checkpoint line %d: corrupt record (%v)", e.Line, e.Err)
}

// Unwrap exposes the underlying parse error.
func (e *CheckpointError) Unwrap() error { return e.Err }

// DecodeCheckpoint reads a checkpoint written by Encode, rebuilding each
// result's scenario against space (which must be the hyperspace of the
// campaign that wrote the checkpoint — the engine's replay verification
// catches mismatches on resume). It never panics on malformed input; on
// failure the returned error is a *CheckpointError.
func DecodeCheckpoint(r io.Reader, space *scenario.Space) (*Checkpoint, error) {
	return decodeCheckpoint(r, space, 64*1024)
}

// decodeCheckpoint is DecodeCheckpoint with a first line buffer of
// bufSize bytes; a journal frame's decode sizes it to the payload.
func decodeCheckpoint(r io.Reader, space *scenario.Space, bufSize int) (*Checkpoint, error) {
	if space == nil {
		return nil, fmt.Errorf("core: decode checkpoint needs a space")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, bufSize), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, &CheckpointError{Kind: CheckpointGarbage, Line: 1, Err: err}
		}
		return nil, &CheckpointError{Kind: CheckpointGarbage, Line: 1, Err: fmt.Errorf("empty input")}
	}
	if sc.Text() != checkpointHeader {
		return nil, &CheckpointError{Kind: CheckpointGarbage, Line: 1, Err: fmt.Errorf("bad header %q", sc.Text())}
	}
	ck := NewCheckpoint()
	line := 1
	var last *Result
	corrupt := func(err error) error {
		return &CheckpointError{Kind: CheckpointCorrupt, Line: line, Err: err}
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "r "):
			res, err := decodeResultLine(text[2:], space)
			if err != nil {
				return nil, corrupt(err)
			}
			if last != nil {
				ck.append(*last)
			}
			last = &res
		case strings.HasPrefix(text, "e "):
			if last == nil {
				return nil, corrupt(fmt.Errorf("extension before any result"))
			}
			if err := decodeExtensionLine(text[2:], last); err != nil {
				return nil, corrupt(err)
			}
		case strings.HasPrefix(text, "c "):
			if last == nil {
				return nil, corrupt(fmt.Errorf("coverage before any result"))
			}
			if err := decodeCoverageLine(text[2:], last); err != nil {
				return nil, corrupt(err)
			}
		case strings.HasPrefix(text, "v "):
			if last == nil {
				return nil, corrupt(fmt.Errorf("violation before any result"))
			}
			v, err := decodeViolationLine(text[2:])
			if err != nil {
				return nil, corrupt(err)
			}
			last.Violations = append(last.Violations, v)
		case text == "":
			// Tolerate a trailing newline.
		default:
			return nil, corrupt(fmt.Errorf("unknown record %q", text))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, corrupt(err)
	}
	if last != nil {
		ck.append(*last)
	}
	return ck, nil
}

func decodeResultLine(s string, space *scenario.Space) (Result, error) {
	var res Result
	fields, err := splitFields(s, 9)
	if err != nil {
		return res, err
	}
	hi, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return res, fmt.Errorf("key hi: %w", err)
	}
	lo, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return res, fmt.Errorf("key lo: %w", err)
	}
	res.Scenario = space.FromCompact(scenario.KeyFromWords(hi, lo))
	if res.Impact, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return res, fmt.Errorf("impact: %w", err)
	}
	if res.Throughput, err = strconv.ParseFloat(fields[3], 64); err != nil {
		return res, fmt.Errorf("throughput: %w", err)
	}
	if res.BaselineThroughput, err = strconv.ParseFloat(fields[4], 64); err != nil {
		return res, fmt.Errorf("baseline: %w", err)
	}
	lat, err := strconv.ParseInt(fields[5], 10, 64)
	if err != nil {
		return res, fmt.Errorf("latency: %w", err)
	}
	res.AvgLatency = time.Duration(lat)
	if res.CrashedReplicas, err = strconv.Atoi(fields[6]); err != nil {
		return res, fmt.Errorf("crashed: %w", err)
	}
	if res.ViewChanges, err = strconv.ParseUint(fields[7], 10, 64); err != nil {
		return res, fmt.Errorf("views: %w", err)
	}
	if res.Generator, err = strconv.Unquote(fields[8]); err != nil {
		return res, fmt.Errorf("generator: %w", err)
	}
	return res, nil
}

// decodeExtensionLine attaches an "e" record's fault-activity and
// degraded-test fields to the result it follows.
func decodeExtensionLine(s string, res *Result) error {
	fields, err := splitFields(s, 4)
	if err != nil {
		return err
	}
	if res.InjectedCrashes, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return fmt.Errorf("injected crashes: %w", err)
	}
	if res.Restarts, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
		return fmt.Errorf("restarts: %w", err)
	}
	hung, err := strconv.ParseUint(fields[2], 10, 1)
	if err != nil {
		return fmt.Errorf("hung: %w", err)
	}
	res.Hung = hung == 1
	if res.Error, err = strconv.Unquote(fields[3]); err != nil {
		return fmt.Errorf("error: %w", err)
	}
	return nil
}

// decodeCoverageLine attaches a "c" record's coverage digest to the
// result it follows.
func decodeCoverageLine(s string, res *Result) error {
	fields, err := splitFields(s, 3)
	if err != nil {
		return err
	}
	if res.Coverage.Timeline, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if res.Coverage.Behaviors, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
		return fmt.Errorf("behaviors: %w", err)
	}
	n, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return fmt.Errorf("behavior count: %w", err)
	}
	res.Coverage.BehaviorCount = uint32(n)
	return nil
}

func decodeViolationLine(s string) (oracle.Violation, error) {
	var v oracle.Violation
	fields, err := splitFields(s, 3)
	if err != nil {
		return v, err
	}
	if v.Count, err = strconv.Atoi(fields[0]); err != nil {
		return v, fmt.Errorf("count: %w", err)
	}
	if v.Invariant, err = strconv.Unquote(fields[1]); err != nil {
		return v, fmt.Errorf("invariant: %w", err)
	}
	if v.Detail, err = strconv.Unquote(fields[2]); err != nil {
		return v, fmt.Errorf("detail: %w", err)
	}
	return v, nil
}

// splitFields tokenizes a record into exactly n space-separated fields,
// where a field starting with '"' extends to its closing quote
// (strconv.QuotedPrefix handles escapes).
func splitFields(s string, n int) ([]string, error) {
	fields := make([]string, 0, n)
	for len(fields) < n {
		s = strings.TrimLeft(s, " ")
		if s == "" {
			return nil, fmt.Errorf("want %d fields, got %d", n, len(fields))
		}
		if s[0] == '"' {
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				return nil, fmt.Errorf("field %d: %w", len(fields)+1, err)
			}
			fields = append(fields, q)
			s = s[len(q):]
			continue
		}
		end := strings.IndexByte(s, ' ')
		if end < 0 {
			end = len(s)
		}
		fields = append(fields, s[:end])
		s = s[end:]
	}
	if rest := strings.TrimLeft(s, " "); rest != "" {
		return nil, fmt.Errorf("trailing data %q", rest)
	}
	return fields, nil
}
