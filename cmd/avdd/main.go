// Command avdd supervises a K-way sharded vulnerability discovery
// campaign: it launches one cmd/avd worker per shard (each exploring a
// deterministic sub-space and journaling to its own durable checkpoint
// under -state), restarts crashed or hung workers with exponential
// backoff, drains the fleet on SIGINT/SIGTERM, and — once every shard
// is done — merges the per-shard checkpoints into one campaign summary
// with exactly-once accounting.
//
//	go build -o /tmp/avd ./cmd/avd
//	go run ./cmd/avdd -worker /tmp/avd -shards 4 -state /tmp/campaign -tests 25 -seed 3
//
// The merge validates that every result lies in its shard's residue
// class and that no scenario was executed by two shards, then prints
// the merged summary and a campaign fingerprint (the FNV-64a hash of
// the merged checkpoint encoding). Two supervised runs of the same
// plan — however many times their workers were SIGKILLed in between —
// print the same fingerprint; the kill-storm test and the CI
// crash-recovery job gate on exactly that.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/supervise"
	"avd/internal/trace"
)

func main() {
	var cfg campaign.Config
	cfg.RegisterFlags(flag.CommandLine)
	var (
		workerBin  = flag.String("worker", "", "path to the cmd/avd worker binary (required)")
		shards     = flag.Int("shards", 2, "number of shards K; each runs one strided sub-space")
		stateDir   = flag.String("state", "", "campaign state directory shared by all shards (required)")
		retries    = flag.Int("retries", 5, "restarts per shard before marking it failed")
		backoff    = flag.Duration("backoff", 250*time.Millisecond, "initial restart backoff (doubles per attempt)")
		backoffMax = flag.Duration("backoffmax", 10*time.Second, "restart backoff cap")
		hungAfter  = flag.Duration("hung", 2*time.Minute, "kill a worker whose heartbeat stalls this long (0 disables)")
		stormKills = flag.Int("storm", 0, "chaos mode: SIGKILL running workers this many times mid-campaign")
		stormEvery = flag.Duration("stormevery", 300*time.Millisecond, "interval between -storm kills")
		summaryOut = flag.String("summary", "", "write the merged campaign summary to this file")
		csvPath    = flag.String("csv", "", "write merged per-test results to this CSV file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// Parsing stops at the first word that is not a flag; the flags
		// after it would otherwise be dropped without a sound.
		fmt.Fprintln(os.Stderr, "avdd: unexpected arguments:", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	if *workerBin == "" || *stateDir == "" {
		fmt.Fprintln(os.Stderr, "avdd: -worker and -state are required")
		os.Exit(2)
	}
	// -csv opens before any worker runs (and before the state directory
	// exists), so a path that cannot be written fails at once.
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		csvFile = f
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fatal(err)
	}

	cfg.Shards = *shards
	// The supervisor derives the same plan the workers will: Build is a
	// pure function of the flags.
	setup, err := campaign.Build(cfg)
	if err != nil {
		fatal(err)
	}
	if *shards > 1 {
		fmt.Printf("avdd: %s over %s, budget %d x %d shards\n",
			setup.Plan, setup.Manifest.Target, cfg.Tests, *shards)
	}

	sup, err := supervise.New(supervise.Config{
		Shards: *shards,
		Command: func(k int) *exec.Cmd {
			args := append(cfg.Args(), "-state", *stateDir, "-quiet")
			if *shards > 1 {
				args = append(args, "-shard", fmt.Sprintf("%d/%d", k, *shards))
			}
			cmd := exec.Command(*workerBin, args...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			return cmd
		},
		Heartbeat:  func(k int) string { return campaign.PathsFor(*stateDir, k, *shards).Heartbeat },
		HungAfter:  *hungAfter,
		Retries:    *retries,
		BackoffMin: *backoff,
		BackoffMax: *backoffMax,
		Log:        os.Stderr,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *stormKills > 0 {
		go storm(ctx, sup, *shards, *stormKills, *stormEvery)
	}

	reports, runErr := sup.Run(ctx)
	survivors := 0
	for _, r := range reports {
		status := "incomplete"
		switch {
		case r.Done:
			status = "done"
			survivors++
		case r.Failed:
			status = "FAILED: " + r.Err
		case r.Drained:
			status = "drained"
		}
		fmt.Printf("avdd: shard %d: %s (%d starts, %d hung kills)\n", r.Shard, status, r.Starts, r.HungKills)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "avdd: campaign degraded: %v; merging the %d completed shards\n", runErr, survivors)
	}
	if survivors == 0 {
		fmt.Fprintln(os.Stderr, "avdd: no shard completed; nothing to merge")
		os.Exit(1)
	}

	// Merge: decode each completed shard's checkpoint with that shard's
	// own sub-space (CompactKeys are space-relative), then combine with
	// exactly-once verification.
	perShard := make([][]core.Result, *shards)
	for _, r := range reports {
		if !r.Done {
			continue // incomplete shards contribute nothing: merged output stays exact
		}
		k := r.Shard
		sub := setup.FullSpace
		if *shards > 1 {
			if sub, err = setup.Plan.Subspace(setup.FullSpace, k); err != nil {
				fatal(err)
			}
		}
		results, info, err := core.ReadDurableResults(campaign.PathsFor(*stateDir, k, *shards).Checkpoint, sub)
		if err != nil {
			fatal(fmt.Errorf("shard %d: %w", k, err))
		}
		if info.TornTail {
			fmt.Fprintf(os.Stderr, "avdd: shard %d checkpoint had a torn tail (%d bytes ignored)\n", k, info.TruncatedBytes)
		}
		perShard[k] = results
	}
	var merged []core.Result
	if *shards > 1 {
		merged, err = core.MergeShards(setup.FullSpace, setup.Plan, perShard)
		if err != nil {
			fatal(err)
		}
	} else {
		merged = perShard[0]
	}

	fp, err := core.FingerprintResults(merged)
	if err != nil {
		fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "shards %d/%d complete, %d merged results\n", survivors, *shards, len(merged))
	trace.SummarizeCampaign(&sb, cfg.Strategy, merged)
	if *shards > 1 {
		shardImpactLines(&sb, perShard)
	}
	fmt.Fprintf(&sb, "campaign fingerprint: %s\n", fp)
	fmt.Print(sb.String())
	if *summaryOut != "" {
		if err := os.WriteFile(*summaryOut, []byte(sb.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("avdd: wrote %s\n", *summaryOut)
	}
	if csvFile != nil {
		err := trace.WriteCampaignCSV(csvFile, cfg.Strategy, merged)
		if err = errors.Join(err, csvFile.Close()); err != nil {
			fatal(fmt.Errorf("csv: %w", err))
		}
		fmt.Printf("avdd: wrote %s\n", *csvPath)
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// shardImpactLines says, shard by shard, how many of its own tests each
// completed shard needed to reach impact 0.9. The merged summary's "first
// reached at test N" counts along shard 0's results, then shard 1's, and
// so on, while the shards ran side by side: its N grows by a whole budget
// for every earlier shard that did not get there first.
func shardImpactLines(w io.Writer, perShard [][]core.Result) {
	for k, results := range perShard {
		if results == nil {
			continue // incomplete: not merged
		}
		if n := core.TestsToImpact(results, 0.9); n > 0 {
			fmt.Fprintf(w, "  shard %d: impact >= 0.90 first reached at its test %d\n", k, n)
		} else {
			fmt.Fprintf(w, "  shard %d: impact >= 0.90 never reached\n", k)
		}
	}
}

// storm is the chaos hook: it SIGKILLs round-robin across the fleet
// until its kill budget is spent, exercising crash-resume under fire.
func storm(ctx context.Context, sup *supervise.Supervisor, shards, kills int, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for done, k := 0, 0; done < kills; k++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if sup.Kill(k % shards) {
				fmt.Fprintf(os.Stderr, "avdd: storm: SIGKILLed shard %d (%d/%d)\n", k%shards, done+1, kills)
				done++
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avdd:", err)
	os.Exit(1)
}
