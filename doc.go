// Package avd is an automated vulnerability discovery platform for
// distributed systems, reproducing Banabic, Candea and Guerraoui,
// "Automated Vulnerability Discovery in Distributed Systems" (HotDep /
// DSN 2011).
//
// AVD synthesizes malicious nodes in a distributed system and searches,
// with a feedback-driven metaheuristic, for the behaviors that maximally
// degrade the performance observed by the correct, unmodified nodes. The
// search space is a hyperspace of test parameters — one dimension per
// testing-tool parameter — and the search algorithm is the paper's
// Algorithm 1: parents sampled from the top-impact set Π, plugins
// sampled by historical fitness gain, and mutation distance
// 1 − parent.impact/µ.
//
// The search engine is protocol-agnostic: internal/core's Target is any
// system under test that can execute scenarios and declare its
// fault-injection plugins, and its Engine drives any Explorer against any
// Target, streaming results as they complete. Two targets ship — a
// complete PBFT implementation (internal/cluster; the paper's case
// study: Big MAC attack, slow-primary bug, Figures 2 and 3) and a
// minimal Raft (internal/raftsim), both over the same deterministic
// discrete-event simulator — so the whole evaluation runs on a single
// machine. Every run is also observed by protocol oracles (agreement,
// committed-entry durability, election safety), and core.Minimize
// delta-debugs a vulnerable scenario down to a minimal fault schedule.
//
// The cmd/avd binary runs campaigns from the command line, and its
// subcommands (avd fig2, fig3, power, bigmac, slowprimary) regenerate
// the paper's figures; cmd/avdd supervises sharded, durable campaigns.
// This package declares nothing: its tests drive the internal packages
// end to end.
package avd
