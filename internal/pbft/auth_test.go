package pbft

import (
	"reflect"
	"testing"

	"avd/internal/mac"
	"avd/internal/simnet"
)

// verdictKind is one message a replica authenticates. build prepares
// replica r to receive it (its view) and returns the message to deliver,
// the object whose authenticator r checks, and the network sender; from is
// the sender that object claims and auth the authenticator it carries.
type verdictKind struct {
	name string
	// client marks a client request: the claimed sender is the client.
	client bool
	// sender is the replica that sends a replica's message to r.
	sender   func(r *Replica) int
	build    func(r *Replica, from int, auth mac.Auth) (msg, signed any, src int)
	accepted func(r *Replica, msg any) bool
}

// verdictClient is the malicious client's address in a four-replica
// testbed: the first client added.
const verdictClient = 4

func cleanRequest() *Request {
	return &Request{Client: verdictClient, Seq: 1, Op: 1, Auth: mac.Sign(verdictClient, 4)}
}

func verdictKinds() []verdictKind {
	request := func(from int, auth mac.Auth) *Request {
		return &Request{Client: simnet.Addr(from), Seq: 1, Op: 1, Auth: auth}
	}
	next := func(r *Replica, k int) int { return (r.id + k) % r.cfg.N }
	return []verdictKind{
		{
			name:   "request/direct",
			client: true,
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				req := request(from, auth)
				return req, req, from
			},
			// The primary admits it; a backup forwards it either way and
			// records whether it verified.
			accepted: func(r *Replica, msg any) bool {
				if r.isPrimary() {
					return len(r.pending) == 1
				}
				fw := r.pendingForwarded[msg.(*Request).Key()]
				return fw != nil && fw.verified
			},
		},
		{
			name:   "request/forwarded",
			client: true,
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				r.view = uint64(r.id) // r is the primary
				req := request(from, auth)
				return &ForwardedRequest{Request: req, Replica: next(r, 1)}, req, next(r, 1)
			},
			accepted: func(r *Replica, _ any) bool { return len(r.pending) == 1 },
		},
		{
			name:   "request/batch",
			client: true,
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				r.view = uint64(r.id + 1) // r is a backup of primary id+1
				req := request(from, auth)
				batch := []*Request{req}
				pp := &PrePrepare{View: r.view, SeqNo: 1, Batch: batch, Digest: BatchDigest(batch), Auth: mac.Sign(next(r, 1), r.cfg.N)}
				return pp, req, next(r, 1)
			},
			accepted: func(r *Replica, msg any) bool {
				e := r.log[1]
				return e != nil && e.prePrepare == msg && !e.poisoned()
			},
		},
		{
			name:   "pre-prepare",
			sender: func(r *Replica) int { return next(r, 1) },
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				r.view = uint64(r.id + 1)
				batch := []*Request{cleanRequest()}
				pp := &PrePrepare{View: r.view, SeqNo: 1, Batch: batch, Digest: BatchDigest(batch), Auth: auth}
				return pp, pp, from
			},
			accepted: func(r *Replica, msg any) bool {
				e := r.log[1]
				return e != nil && e.prePrepare == msg
			},
		},
		{
			name:   "prepare",
			sender: func(r *Replica) int { return next(r, 2) }, // a backup: id+1 is the primary
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				r.view = uint64(r.id + 1)
				p := &Prepare{View: r.view, SeqNo: 1, Digest: 7, Replica: from, Auth: auth}
				return p, p, from
			},
			accepted: func(r *Replica, msg any) bool {
				e := r.log[1]
				return e != nil && e.prepares.mask&(1<<uint(msg.(*Prepare).Replica)) != 0
			},
		},
		{
			name:   "commit",
			sender: func(r *Replica) int { return next(r, 2) },
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				r.view = uint64(r.id + 1)
				c := &Commit{View: r.view, SeqNo: 1, Digest: 7, Replica: from, Auth: auth}
				return c, c, from
			},
			accepted: func(r *Replica, msg any) bool {
				e := r.log[1]
				return e != nil && e.commits.mask&(1<<uint(msg.(*Commit).Replica)) != 0
			},
		},
		{
			name:   "checkpoint",
			sender: func(r *Replica) int { return next(r, 1) },
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				cp := &Checkpoint{SeqNo: 8, Digest: 7, Replica: from, Auth: auth}
				return cp, cp, from
			},
			accepted: func(r *Replica, msg any) bool {
				v := r.checkpoints[8]
				return v != nil && v.mask&(1<<uint(msg.(*Checkpoint).Replica)) != 0
			},
		},
		{
			name:   "view change",
			sender: func(r *Replica) int { return next(r, 1) },
			build: func(r *Replica, from int, auth mac.Auth) (any, any, int) {
				vc := &ViewChange{NewView: 1, Replica: from, Auth: auth}
				return vc, vc, from
			},
			accepted: func(r *Replica, msg any) bool {
				return r.viewChanges[1][msg.(*ViewChange).Replica] != nil
			},
		},
	}
}

// TestMessageVerdicts delivers every kind of authenticated message to each
// of four replicas and checks who accepts it: everyone a clean one, nobody
// a pbft.Corrupt copy, one claiming another sender or an unsigned one
// (the zero value, like a new view's unsigned re-proposal), and exactly
// the receivers whose entry the Big MAC mask left clean — replica 0, the
// view-0 primary — a masked one. The masked client request comes from a
// real client's buildRequest under its ModMask plan.
func TestMessageVerdicts(t *testing.T) {
	const n = 4
	everyone := func(int) bool { return true }
	nobody := func(int) bool { return false }
	cases := []struct {
		name    string
		corrupt bool
		auth    func(k verdictKind, m *Client, from int) mac.Auth
		want    func(receiver int) bool
	}{
		{"clean", false, func(_ verdictKind, _ *Client, from int) mac.Auth { return mac.Sign(from, n) }, everyone},
		{"corrupt copy", true, func(_ verdictKind, _ *Client, from int) mac.Auth { return mac.Sign(from, n) }, nobody},
		{"wrong sender", false, func(_ verdictKind, _ *Client, from int) mac.Auth { return mac.Sign(from+1, n) }, nobody},
		{"big MAC mask", false, func(k verdictKind, m *Client, from int) mac.Auth {
			if k.client {
				m.seq = 1
				return m.buildRequest(false).Auth
			}
			return mac.Sign(from, n).Corrupt(1).Corrupt(2).Corrupt(3)
		}, func(receiver int) bool { return receiver == 0 }},
		{"unsigned", false, func(verdictKind, *Client, int) mac.Auth { return mac.Auth{} }, nobody},
	}
	for _, k := range verdictKinds() {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				tb := newTestbed(t, testbedOpts{})
				m := tb.maliciousClient(0xEEE, DefaultClientConfig())
				if m.Addr() != verdictClient {
					t.Fatalf("the malicious client is at %v, want %d", m.Addr(), verdictClient)
				}
				for _, r := range tb.replicas {
					from := verdictClient
					if !k.client {
						from = k.sender(r)
					}
					msg, signed, src := k.build(r, from, tc.auth(k, m, from))
					if tc.corrupt {
						c := Corrupt(simnet.Addr(src), r.Addr(), signed)
						if k.client || k.name == "view change" {
							// Client traffic has its own tool, and view changes
							// are not garbled: the corrupter declines.
							if c != nil {
								t.Fatalf("Corrupt garbled a %s", k.name)
							}
							return
						}
						msg = c
					}
					r.onMessage(simnet.Addr(src), msg)
					if got, want := k.accepted(r, msg), tc.want(r.id); got != want {
						t.Errorf("replica %d accepted: %v, want %v", r.id, got, want)
					}
				}
			})
		}
	}
}

// TestNewViewFillsGapWithNullRequest: proofs for sequence numbers 1 and 3
// make the new primary re-propose both batches and a null request at 2.
// The null request carries no authenticator and still verifies, because a
// null request is never checked; a re-proposed client request is checked
// against its own entry, so a masked one crashes the new primary (the
// modelled defect).
func TestNewViewFillsGapWithNullRequest(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	r := tb.replicas[1] // primary of view 1
	proof := func(seq uint64, req *Request) PreparedProof {
		batch := []*Request{req}
		return PreparedProof{PrePrepare: &PrePrepare{SeqNo: seq, Batch: batch, Digest: BatchDigest(batch), Auth: mac.Sign(0, 4)}}
	}
	clean := func(seq uint64) *Request {
		return &Request{Client: verdictClient, Seq: seq, Op: seq, Auth: mac.Sign(verdictClient, 4)}
	}
	byReplica := map[int]*ViewChange{
		0: {NewView: 1, Replica: 0, Prepared: []PreparedProof{proof(1, clean(1)), proof(3, clean(3))}},
		1: {NewView: 1, Replica: 1},
		2: {NewView: 1, Replica: 2},
	}
	minS, out := r.computeNewViewSets(byReplica)
	if minS != 0 || len(out) != 3 {
		t.Fatalf("min-s %d with %d re-proposals, want 0 and 3", minS, len(out))
	}
	null := out[1]
	if null.SeqNo != 2 || len(null.Batch) != 1 || !null.Batch[0].IsNull() || null.Digest != BatchDigest(null.Batch) {
		t.Fatalf("the gap at 2 re-proposes %+v, want one null request", null)
	}
	if null.Batch[0].Auth != (mac.Auth{}) {
		t.Fatal("the null request carries an authenticator")
	}
	for _, pp := range out {
		if !r.reproposalVerifies(pp) {
			t.Fatalf("re-proposal at %d did not verify", pp.SeqNo)
		}
	}
	r.installNewView(1, minS, out)
	if crashed, why := r.Crashed(); crashed || r.View() != 1 {
		t.Fatalf("new primary crashed (%q) or stayed out of view 1 (view %d)", why, r.View())
	}
	for _, pp := range out {
		if e := r.log[pp.SeqNo]; e == nil || e.prePrepare != pp {
			t.Fatalf("re-proposal at %d is not in the log", pp.SeqNo)
		}
		if !pp.Auth.Verifies(2, 1) {
			t.Fatalf("the new primary did not sign its re-proposal at %d", pp.SeqNo)
		}
	}

	masked := clean(4)
	masked.Auth = masked.Auth.Corrupt(2)
	if r2 := tb.replicas[2]; r2.reproposalVerifies(proof(4, masked).PrePrepare) {
		t.Fatal("replica 2 verified a re-proposal its entry was masked out of")
	} else if crashed, _ := r2.Crashed(); !crashed {
		t.Fatal("the unverifiable re-proposal did not crash replica 2")
	}
	if !tb.replicas[3].reproposalVerifies(proof(4, masked).PrePrepare) {
		t.Fatal("replica 3, whose entry is clean, refused the re-proposal")
	}
}

// TestMessagesHoldNoPointers keeps the slab chunks of the most numerous
// messages noscan: the collector skips a chunk whose element type holds no
// pointer, so a pointer field added to one of these (an authenticator
// vector, say) is paid for in every window's marking and in peak RSS.
func TestMessagesHoldNoPointers(t *testing.T) {
	for _, v := range []any{Request{}, Prepare{}, Commit{}, Reply{}, Checkpoint{}} {
		typ := reflect.TypeOf(v)
		if path := pointerAt(typ); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
}

// pointerAt returns where t holds a pointer, "" if nowhere.
func pointerAt(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerAt(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerAt(t.Elem()); p != "" && t.Len() > 0 {
			return "[]" + p
		}
		return ""
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return " (" + t.Kind().String() + ")"
}
