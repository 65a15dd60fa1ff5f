package pbft

import (
	"fmt"
	"math/bits"
	"time"

	"avd/internal/faultinject"
	"avd/internal/mac"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// PointGenerateMAC is the fault-injection point instrumenting every MAC
// computation in a client's authenticator generation — the injection
// point of the paper's PBFT experiment. Call numbers advance by one per
// MAC entry, so with N replicas a request consumes N consecutive calls
// and a 12-bit ModMask cycles over 12/N requests.
const PointGenerateMAC = "client.generateMAC"

// ClientConfig tunes client behavior.
type ClientConfig struct {
	// Retry is the initial retransmission timeout; after it fires the
	// client broadcasts the request to all replicas.
	Retry time.Duration
	// RetryCap bounds the exponential retransmission backoff.
	RetryCap time.Duration
	// Broadcast makes every first transmission go to all replicas
	// instead of just the primary. The colluding client of the
	// slow-primary attack uses this to seed the backups' request timers.
	Broadcast bool
}

// DefaultClientConfig matches the closed-loop benchmark clients of the
// PBFT evaluation: moderate retransmission timeout with backoff.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Retry:    150 * time.Millisecond,
		RetryCap: 2 * time.Second,
	}
}

// ClientStats counts client activity.
type ClientStats struct {
	Issued          uint64
	Completed       uint64
	Retransmissions uint64
}

// clientState is what a client changes as it runs (see replicaState).
type clientState struct {
	// mac counts generateMAC calls from boot and holds the armed
	// corruption schedule (SetPlan).
	mac faultinject.Counter

	running bool
	view    uint64 // best known view, learned from replies
	seq     uint64
	curDone bool // current request already completed (guards late replies)
	sentAt  sim.Time
	// replies records the current request's per-replica results densely:
	// a presence mask plus one slot per replica id.
	replies    []uint64
	repMask    uint64
	retryTimer sim.Timer
	curRetry   time.Duration
	retryFor   uint64 // request seq the retry timer was armed for
	// broadcast sends every first transmission to all replicas
	// (ClientConfig.Broadcast, re-armed per run by SetBroadcast).
	broadcast bool

	stats ClientStats
}

// Client is a closed-loop PBFT client: it keeps exactly one request
// outstanding and issues the next one as soon as the current one
// completes (f+1 matching replies).
type Client struct {
	clientState

	addr     simnet.Addr
	pcfg     Config
	ccfg     ClientConfig
	eng      *sim.Engine
	net      *simnet.Network
	retryFn  func() // pre-bound retry callback (no per-arm closure)
	allAddrs []simnet.Addr

	// mem is the deployment's message arena (arena.go): requests are
	// built once per transmission, shared by pointer and carved from it.
	// A client built without WithClientArena gets a private one.
	mem *Arena

	// onComplete, when set, observes every completed request.
	onComplete func(seq uint64, latency time.Duration)
}

// ClientOption customizes client construction.
type ClientOption func(*Client)

// WithClientArena makes the client carve its requests from the
// deployment's shared arena instead of a private one.
func WithClientArena(a *Arena) ClientOption {
	return func(c *Client) { c.mem = a }
}

// WithOnComplete registers a completion observer.
func WithOnComplete(fn func(seq uint64, latency time.Duration)) ClientOption {
	return func(c *Client) { c.onComplete = fn }
}

// NewClient creates a client at addr (which must not collide with the
// replica addresses 0..N-1) and registers it on the network.
func NewClient(addr simnet.Addr, pcfg Config, ccfg ClientConfig, net *simnet.Network, opts ...ClientOption) (*Client, error) {
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	if int(addr) < pcfg.N {
		return nil, fmt.Errorf("pbft: client address %v collides with replica ids", addr)
	}
	if ccfg.Retry <= 0 {
		ccfg.Retry = DefaultClientConfig().Retry
	}
	if ccfg.RetryCap < ccfg.Retry {
		ccfg.RetryCap = 8 * ccfg.Retry
	}
	c := &Client{
		clientState: clientState{replies: make([]uint64, pcfg.N), broadcast: ccfg.Broadcast},
		addr:        addr,
		pcfg:        pcfg,
		ccfg:        ccfg,
		eng:         net.Engine(),
		net:         net,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.mem == nil {
		c.mem = newPrivateArena()
	}
	c.retryFn = func() { c.onRetry(c.retryFor) }
	c.allAddrs = make([]simnet.Addr, pcfg.N)
	for i := range c.allAddrs {
		c.allAddrs[i] = simnet.Addr(i)
	}
	net.Handle(addr, c.onMessage)
	return c, nil
}

// Addr returns the client's network address.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Seq returns the client's current request number.
func (c *Client) Seq() uint64 { return c.seq }

// Outstanding reports whether a request is currently in flight and when
// it was sent; measurement code uses it to account for requests that
// never complete (censored latency).
func (c *Client) Outstanding() (sim.Time, bool) {
	if !c.running || c.seq == 0 {
		return 0, false
	}
	return c.sentAt, true
}

// Start begins the closed loop. It is idempotent.
func (c *Client) Start() {
	if c.running {
		return
	}
	c.running = true
	c.issueNext()
}

// Stop halts the loop and cancels timers.
func (c *Client) Stop() {
	c.running = false
	c.retryTimer.Stop()
}

func (c *Client) issueNext() {
	if !c.running {
		return
	}
	c.seq++
	c.curDone = false
	c.repMask = 0
	c.curRetry = c.ccfg.Retry
	c.sentAt = c.eng.Now()
	c.stats.Issued++
	req := c.buildRequest(false)
	if c.broadcast {
		c.broadcastRequest(req)
	} else {
		c.mem.share(&req.holders, 1)
		c.net.SendOwned(c.addr, simnet.Addr(c.pcfg.PrimaryOf(c.view)), req)
	}
	c.armRetry()
}

// broadcastRequest sends req to every replica; its deliveries are its
// holders.
func (c *Client) broadcastRequest(req *Request) {
	c.mem.share(&req.holders, len(c.allAddrs))
	c.net.BroadcastOwned(c.addr, c.replicaAddrs(), req)
}

// buildRequest assembles the request with a freshly generated
// authenticator: one generateMAC call per replica's entry, each of which
// the injection point may corrupt. Retransmissions regenerate all MACs,
// consuming new call numbers — which is why a mask can corrupt a first
// transmission but leave its retransmission intact (the undocumented-bug
// dynamics of §6).
func (c *Client) buildRequest(retransmission bool) *Request {
	auth := mac.Sign(int(c.addr), c.pcfg.N)
	for i := 0; i < c.pcfg.N; i++ {
		if c.mac.Check() {
			auth = auth.Corrupt(i)
		}
	}
	req := c.mem.requests.Get()
	*req = Request{
		Client:         c.addr,
		Seq:            c.seq,
		Auth:           auth,
		Retransmission: retransmission,
	}
	return req
}

func (c *Client) replicaAddrs() []simnet.Addr { return c.allAddrs }

func (c *Client) armRetry() {
	c.retryFor = c.seq
	c.retryTimer = c.eng.Reset(c.retryTimer, c.eng.Now().Add(c.curRetry), c.retryFn)
}

func (c *Client) onRetry(seq uint64) {
	if !c.running || seq != c.seq {
		return
	}
	c.stats.Retransmissions++
	c.broadcastRequest(c.buildRequest(true))
	c.curRetry *= 2
	if c.curRetry > c.ccfg.RetryCap {
		c.curRetry = c.ccfg.RetryCap
	}
	c.armRetry()
}

func (c *Client) onMessage(from simnet.Addr, payload any) {
	reply, ok := payload.(*Reply)
	if !ok || !c.running {
		return
	}
	if reply.Seq != c.seq || reply.Client != c.addr || c.curDone {
		return
	}
	if reply.View > c.view {
		c.view = reply.View
	}
	c.replies[reply.Replica] = reply.Result
	c.repMask |= 1 << uint(reply.Replica)
	// f+1 matching results complete the request. Only the result just
	// recorded can newly reach the threshold, so count its matches.
	matches := 0
	m := c.repMask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if c.replies[i] == reply.Result {
			matches++
		}
	}
	if matches >= c.pcfg.F+1 {
		c.complete()
	}
}

func (c *Client) complete() {
	c.curDone = true
	c.stats.Completed++
	// A closed loop issues the next request in this callback and armRetry
	// re-arms the pending timer in place; Stop takes no seq, so leaving it to
	// that Reset moves no key. If onComplete stops the client, Client.Stop
	// has stopped the timer.
	latency := c.eng.Now().Sub(c.sentAt)
	if c.onComplete != nil {
		c.onComplete(c.seq, latency)
	}
	c.issueNext()
}
