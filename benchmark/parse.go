package main

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// cliReport is what the harness reads back from one child's stdout.
type cliReport struct {
	// tests is the count in avd's "N tests in Xs (wall)" line, or avdd's
	// "N merged results".
	tests int
	// shardsDone / shardsTotal come from avdd's "shards a/b complete".
	shardsDone, shardsTotal int
	// fingerprint is avdd's campaign fingerprint ("" for avd).
	fingerprint string
	// restarts sums (starts - 1) over avdd's per-shard status lines.
	restarts int
	// shardClosed[k] is when shard k's worker printed its "durable
	// checkpoint" line — its campaign done and its journal closed.
	shardClosed map[int]stampedLine
}

// parseStdout extracts the report from a child's stamped stdout lines.
func parseStdout(lines []stampedLine) cliReport {
	rep := cliReport{shardClosed: make(map[int]stampedLine)}
	for _, ln := range lines {
		t := ln.text
		var n, a, b, k, starts, hung int
		switch {
		case scan(t, "%d tests in", &n):
			// Sharded runs interleave one such line per worker; avdd's
			// merged count below overrides them.
			if rep.shardsTotal == 0 {
				rep.tests = n
			}
		case scan(t, "shards %d/%d complete, %d merged results", &a, &b, &n):
			rep.shardsDone, rep.shardsTotal, rep.tests = a, b, n
		case strings.HasPrefix(t, "campaign fingerprint: "):
			rep.fingerprint = strings.TrimPrefix(t, "campaign fingerprint: ")
		case scan(t, "avdd: shard %d: done (%d starts, %d hung kills)", &k, &starts, &hung):
			rep.restarts += starts - 1
		case strings.HasPrefix(t, "durable checkpoint: "):
			// durable checkpoint: DIR/shard-K-of-N.ckpt (M results)
			if i := strings.LastIndex(t, "shard-"); i >= 0 && scan(t[i:], "shard-%d-of-", &k) {
				rep.shardClosed[k] = ln
			}
		}
	}
	return rep
}

// scan is Sscanf that reports whether s starts with the whole format,
// literal text included.
func scan(s, format string, args ...any) bool {
	n, err := fmt.Sscanf(s, format, args...)
	return err == nil && n == len(args)
}

// csvReport summarises a campaign CSV as trace.WriteCampaignCSV writes it.
type csvReport struct {
	rows   int // result rows (header excluded)
	failed int // rows marked hung or carrying an error
}

// csvHeaderPrefix pins the columns parseCSV relies on.
const csvHeaderPrefix = "strategy,iteration,scenario,"

// parseCSV counts result rows and failed tests. The writer renders the
// scenario and error columns with %q (Go quoting, not RFC 4180), so the
// fields are split with strconv rather than encoding/csv.
func parseCSV(data []byte) (csvReport, error) {
	var rep csvReport
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	if !sc.Scan() {
		return rep, fmt.Errorf("csv: empty file")
	}
	header := strings.Split(sc.Text(), ",")
	if !strings.HasPrefix(sc.Text(), csvHeaderPrefix) {
		return rep, fmt.Errorf("csv: unexpected header %q", sc.Text())
	}
	hungCol, errCol := slices.Index(header, "hung"), slices.Index(header, "error")
	if hungCol < 0 || errCol < 0 {
		return rep, fmt.Errorf("csv: header lacks hung/error columns: %q", sc.Text())
	}
	for sc.Scan() {
		fields, err := splitRow(sc.Text())
		if err != nil {
			return rep, fmt.Errorf("csv: row %d: %w", rep.rows+1, err)
		}
		if len(fields) != len(header) {
			return rep, fmt.Errorf("csv: row %d has %d fields, header has %d", rep.rows+1, len(fields), len(header))
		}
		rep.rows++
		if fields[hungCol] != "false" || fields[errCol] != "" {
			rep.failed++
		}
	}
	return rep, sc.Err()
}

// splitRow splits one CSV row whose quoted fields use Go string syntax.
func splitRow(row string) ([]string, error) {
	var fields []string
	for {
		if strings.HasPrefix(row, `"`) {
			q, err := strconv.QuotedPrefix(row)
			if err != nil {
				return nil, fmt.Errorf("bad quoted field at %q", tail(row, 40))
			}
			s, err := strconv.Unquote(q)
			if err != nil {
				return nil, err
			}
			fields = append(fields, s)
			row = row[len(q):]
		} else {
			end := strings.IndexByte(row, ',')
			if end < 0 {
				end = len(row)
			}
			fields = append(fields, row[:end])
			row = row[end:]
		}
		if row == "" {
			return fields, nil
		}
		if row[0] != ',' {
			return nil, fmt.Errorf("expected ',' at %q", tail(row, 40))
		}
		row = row[1:]
		if row == "" {
			return append(fields, ""), nil
		}
	}
}
