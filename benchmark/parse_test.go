package main

import (
	"strings"
	"testing"
	"time"
)

func stamp(text string) []stampedLine {
	var out []stampedLine
	for i, ln := range strings.Split(text, "\n") {
		out = append(out, stampedLine{at: time.Duration(i) * time.Millisecond, text: ln})
	}
	return out
}

func TestParseAvdStdout(t *testing.T) {
	rep := parseStdout(stamp(`target=pbft strategy=avd hyperspace=204800 scenarios budget=100 workers=1

100 tests in 3s (wall)

avd: 100 tests, best impact 0.949 (throughput 87 req/s vs baseline 51417, avg latency 750ms)
  impact >= 0.90 first reached at test 24

top 5 attacks:
  1. impact=0.949 tput=87 req/s lat=750ms crash=2 injected=0/0  correct_clients=130|mac_mask=2888|malicious_clients=1
  5. impact=0.949 tput=87 req/s lat=750ms crash=2 injected=0/0  correct_clients=130|mac_mask=2892|malicious_clients=1

wrote /tmp/f.csv`))
	if rep.tests != 100 || rep.fingerprint != "" || rep.shardsTotal != 0 || rep.restarts != 0 {
		t.Errorf("got %+v", rep)
	}
}

func TestParseAvddStdout(t *testing.T) {
	rep := parseStdout(stamp(`avdd: stride 2 on mac_mask over pbft, budget 70 x 2 shards
target=pbft strategy=avd hyperspace=102400 scenarios budget=70 workers=1 shard=1/2 (stride 2 on mac_mask)
durable checkpoint: /w/state/shard-1-of-2.ckpt (70 results)

70 tests in 2s (wall)

durable checkpoint: /w/state/shard-0-of-2.ckpt (70 results)

70 tests in 3s (wall)

avdd: shard 0: done (1 starts, 0 hung kills)
avdd: shard 1: done (3 starts, 1 hung kills)
shards 2/2 complete, 140 merged results
avd: 140 tests, best impact 0.949 (throughput 87 req/s vs baseline 51417, avg latency 750ms)
campaign fingerprint: 9f3c2a7d01e4b6aa
avdd: wrote /w/campaign.csv`))
	if rep.tests != 140 || rep.shardsDone != 2 || rep.shardsTotal != 2 {
		t.Errorf("counts: %+v", rep)
	}
	if rep.fingerprint != "9f3c2a7d01e4b6aa" {
		t.Errorf("fingerprint %q", rep.fingerprint)
	}
	if rep.restarts != 2 {
		t.Errorf("restarts = %d, want 2", rep.restarts)
	}
	if len(rep.shardClosed) != 2 || rep.shardClosed[1].at >= rep.shardClosed[0].at {
		t.Errorf("shard close stamps: %+v", rep.shardClosed)
	}
}

const csvHeader = "strategy,iteration,scenario,impact,throughput_rps,baseline_rps,avg_latency_s,crashed_replicas,view_changes,injected_crashes,restarts,hung,error,generator,violations,timeline_hash,behavior_digest,behaviors\n"

func TestParseCSV(t *testing.T) {
	data := csvHeader +
		`avd,1,"correct_clients=80|mac_mask=2384|malicious_clients=2",0.1527,23226.7,28675.3,0.0034,0,0,0,0,false,"",seed,,0xfe794a3aeb3d8265,0x59f4f3cc700362c5,11` + "\n" +
		`avd,2,"a=1|b=2",0.5,1.0,2.0,0.0093,0,0,0,0,true,"",probe,,0x0,0x0,0` + "\n" +
		`avd,3,"a=1|b=3",0.0,0.0,2.0,0.0,0,0,0,0,false,"core: target panicked running a=1|b=3: index out of range [5], with \"quotes\"",mutate:clients,pbft/agreement;pbft/x,0x0,0x0,0` + "\n"
	rep, err := parseCSV([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.rows != 3 || rep.failed != 2 {
		t.Errorf("got %+v, want 3 rows, 2 failed (one hung, one errored)", rep)
	}
}

func TestParseCSVRejects(t *testing.T) {
	for name, data := range map[string]string{
		"empty":      "",
		"header":     "iteration,scenario\n",
		"short row":  csvHeader + "avd,1\n",
		"bad quotes": csvHeader + `avd,1,"unterminated,0.1` + "\n",
	} {
		if _, err := parseCSV([]byte(data)); err == nil {
			t.Errorf("%s: parseCSV accepted it", name)
		}
	}
}

func TestWorkloadArgs(t *testing.T) {
	for _, w := range workloads() {
		line := strings.Join(w.args("/bin/avd", "out.csv", "statedir"), " ")
		if w.sharded == strings.Contains(line, "-quiet") {
			t.Errorf("%s: %q mixes avd's and avdd's flags", w.name, line)
		}
		for _, want := range []string{"-target " + w.cfg.Target, "-strategy " + w.cfg.Strategy, "-seed 1", "-csv out.csv"} {
			if !strings.Contains(line, want) {
				t.Errorf("%s: %q lacks %q", w.name, line, want)
			}
		}
		if w.sharded && !strings.Contains(line, "-worker /bin/avd -shards 2 -state statedir") {
			t.Errorf("%s: %q", w.name, line)
		}
	}
}
