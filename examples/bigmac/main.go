// Big MAC: demonstrate the MAC-corruption attack of §6 step by step —
// how corrupting different subsets of a request authenticator's entries
// produces completely different system behavior, from "tolerated" to
// "view change and crash".
//
//	go run ./examples/bigmac
package main

import (
	"fmt"
	"log"
	"time"

	"avd"
)

// gray decodes a 12-bit mask into the hyperspace coordinate whose Gray
// encoding it is.
func gray(mask uint64) int64 {
	n := mask
	for shift := uint(1); shift < 64; shift <<= 1 {
		n ^= n >> shift
	}
	return int64(n)
}

func main() {
	workload := avd.DefaultWorkload()
	workload.Measure = 2 * time.Second
	target, err := avd.NewPBFTTarget(workload)
	if err != nil {
		log.Fatal(err)
	}
	runner := target
	space, err := avd.SpaceOf(target.Plugins()...)
	if err != nil {
		log.Fatal(err)
	}

	// Bit n of the mask corrupts the (n mod 12)-th generateMAC call of
	// the malicious client. With 4 replicas, one request consumes 4
	// calls, so positions 0,4,8 are the primary's entries and the rest
	// belong to the backups.
	attacks := []struct {
		name string
		mask uint64
		why  string
	}{
		{"no corruption", 0x000,
			"control: the malicious client behaves correctly"},
		{"one backup, every request", 0x222,
			"replica 1's entry corrupt everywhere: the 2f quorum absorbs it (BFT working)"},
		{"first request only", 0x00F,
			"first authenticator fully corrupt, retransmissions clean: executes late, no view change (the undocumented-bug dynamics)"},
		{"primary always", 0x111,
			"the primary drops every request; pending forwards force periodic view changes"},
		{"all backups, every request (Big MAC)", 0xEEE,
			"primary accepts, no backup can authenticate: batches poison, the view change crashes replicas"},
		{"everything", 0xFFF,
			"even the primary rejects outright; damage drops back to timer churn"},
	}

	fmt.Println("PBFT, 4 replicas (f=1), 30 correct clients, 1 malicious client")
	fmt.Printf("%-40s %10s %9s %8s %s\n", "mask (bit n -> call n mod 12)", "tput req/s", "impact", "crashes", "note")
	for _, a := range attacks {
		sc := space.New(map[string]int64{
			avd.DimMACMask:          gray(a.mask),
			avd.DimCorrectClients:   30,
			avd.DimMaliciousClients: 1,
		})
		res := runner.Run(sc)
		fmt.Printf("%-40s %10.0f %9.3f %8d %s\n",
			fmt.Sprintf("%s (%#03x)", a.name, a.mask), res.Throughput, res.Impact, res.CrashedReplicas, a.why)
	}

	fmt.Println("\nThe 0xEEE row is the Big MAC attack (Clement et al., NSDI'09): a single")
	fmt.Println("malicious client collapses the whole deployment. Scale it up with")
	fmt.Println("cmd/bigmac -clients 250 to reproduce the paper's headline result.")
}
