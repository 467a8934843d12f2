package platform

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// echoBody replies to every Request with an Inform echoing the content.
type echoBody struct{}

func (e *echoBody) Setup(a *Agent) error {
	a.AddBehaviour(MessageHandler(MatchPerformative(Request), func(a *Agent, msg ACLMessage) {
		reply := msg.Reply(Inform, msg.Content)
		if err := a.Send(reply); err != nil {
			panic(err) // test-only body; failures surface loudly
		}
	}))
	return nil
}

func testRig(t *testing.T) (*Platform, *Container, *Container) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.WithSeed(2))
	if _, err := net.AddHost("hostA", "lab", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("hostB", "lab", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(net)
	t.Cleanup(func() { fab.Close() })
	p := NewPlatform(fab)
	ca, err := p.NewContainer("main", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := p.NewContainer("remote", "hostB")
	if err != nil {
		t.Fatal(err)
	}
	return p, ca, cb
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestAgentLifecycle(t *testing.T) {
	_, ca, _ := testRig(t)
	a, err := ca.CreateAgent("echo", &echoBody{})
	if err != nil {
		t.Fatal(err)
	}
	if a.State() != StateActive {
		t.Fatalf("state = %v, want active", a.State())
	}
	a.Suspend()
	if got := a.State(); got != StateSuspended {
		t.Fatalf("state after suspend = %v", got)
	}
	a.Resume()
	if got := a.State(); got != StateActive {
		t.Fatalf("state after resume = %v", got)
	}
	if err := ca.KillAgent("echo"); err != nil {
		t.Fatal(err)
	}
	if got := a.State(); got != StateDeleted {
		t.Fatalf("state after kill = %v", got)
	}
	if _, ok := ca.Agent("echo"); ok {
		t.Fatal("agent still listed after kill")
	}
	if err := ca.KillAgent("echo"); err == nil {
		t.Fatal("double kill accepted")
	}
}

// recorderBody records the content of every Inform it handles, in order.
type recorderBody struct {
	mu  sync.Mutex
	got []string
}

func (r *recorderBody) Setup(a *Agent) error {
	a.AddBehaviour(MessageHandler(MatchPerformative(Inform), func(_ *Agent, msg ACLMessage) {
		r.mu.Lock()
		r.got = append(r.got, string(msg.Content))
		r.mu.Unlock()
	}))
	return nil
}

func (r *recorderBody) handled() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.got...)
}

// TestSuspendedAgentParks checks the scheduler's park paths: a suspended
// agent runs no behaviour while mail queues, handles the queue in order
// once resumed, and can be killed while suspended.
func TestSuspendedAgentParks(t *testing.T) {
	_, ca, _ := testRig(t)
	body := &recorderBody{}
	a, err := ca.CreateAgent("rec", body)
	if err != nil {
		t.Fatal(err)
	}
	a.Suspend()
	want := []string{"m0", "m1", "m2", "m3", "m4"}
	for _, m := range want {
		a.Post(ACLMessage{Performative: Inform, Receiver: "rec", Content: []byte(m)})
	}
	time.Sleep(20 * time.Millisecond)
	if got := body.handled(); len(got) != 0 {
		t.Fatalf("suspended agent handled %v", got)
	}

	a.Resume()
	deadline := time.Now().Add(5 * time.Second)
	for len(body.handled()) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("handled %v after resume, want %v", body.handled(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if got := body.handled(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("handled %v, want %v", got, want)
	}

	a.Suspend()
	killed := make(chan error, 1)
	go func() { killed <- ca.KillAgent("rec") }()
	select {
	case err := <-killed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("KillAgent of a suspended agent did not return")
	}
	if got := a.State(); got != StateDeleted {
		t.Fatalf("state after kill = %v, want deleted", got)
	}
}

func TestDuplicateAgentNameRejected(t *testing.T) {
	_, ca, cb := testRig(t)
	if _, err := ca.CreateAgent("x", &echoBody{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.CreateAgent("x", &echoBody{}); err == nil {
		t.Fatal("duplicate agent name accepted across containers")
	}
}

func TestLocalRequestReply(t *testing.T) {
	_, ca, _ := testRig(t)
	if _, err := ca.CreateAgent("echo", &echoBody{}); err != nil {
		t.Fatal(err)
	}
	caller, err := ca.CreateAgent("caller", nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := caller.RequestReply(ctxT(t), ACLMessage{
		Performative: Request, Receiver: "echo", Content: []byte("ping"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != Inform || string(reply.Content) != "ping" {
		t.Fatalf("reply = %s %q", reply.Performative, reply.Content)
	}
	if reply.Sender != "echo" || reply.Receiver != "caller" {
		t.Fatalf("reply routing = %+v", reply)
	}
}

func TestRemoteRequestReplyAcrossContainers(t *testing.T) {
	_, ca, cb := testRig(t)
	if _, err := cb.CreateAgent("echo", &echoBody{}); err != nil {
		t.Fatal(err)
	}
	caller, err := ca.CreateAgent("caller", nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := caller.RequestReply(ctxT(t), ACLMessage{
		Performative: Request, Receiver: "echo", Content: []byte("cross"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Content) != "cross" {
		t.Fatalf("reply content = %q", reply.Content)
	}
}

func TestSendToUnknownAgentFails(t *testing.T) {
	_, ca, _ := testRig(t)
	a, err := ca.CreateAgent("solo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ACLMessage{Performative: Inform, Receiver: "ghost"}); err == nil {
		t.Fatal("send to unknown agent succeeded")
	}
	if err := a.Send(ACLMessage{Performative: Inform}); err == nil {
		t.Fatal("send without receiver succeeded")
	}
}

func TestAMSAndDF(t *testing.T) {
	p, ca, cb := testRig(t)
	if _, err := ca.CreateAgent("a1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.CreateAgent("b1", nil); err != nil {
		t.Fatal(err)
	}
	if where, ok := p.WhereIs("b1"); !ok || where != "remote" {
		t.Fatalf("WhereIs(b1) = %q, %v", where, ok)
	}
	if agents := p.Agents(); len(agents) != 2 || agents[0] != "a1" {
		t.Fatalf("Agents = %v", agents)
	}
	p.RegisterService(ServiceAd{Agent: "b1", Type: "mobility-manager", Name: "mm"})
	ads := p.SearchService("mobility-manager")
	if len(ads) != 1 || ads[0].Agent != "b1" {
		t.Fatalf("SearchService = %v", ads)
	}
	// Killing the agent cleans the DF.
	if err := cb.KillAgent("b1"); err != nil {
		t.Fatal(err)
	}
	if ads := p.SearchService("mobility-manager"); len(ads) != 0 {
		t.Fatalf("DF retains dead agent: %v", ads)
	}
	if _, ok := p.WhereIs("b1"); ok {
		t.Fatal("AMS retains dead agent")
	}
}

func TestReceiveWaitCancellation(t *testing.T) {
	_, ca, _ := testRig(t)
	a, err := ca.CreateAgent("waiter", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.ReceiveWait(ctx, nil); err == nil {
		t.Fatal("ReceiveWait returned without message or cancellation")
	}
}

func TestPerformativeAndStateStrings(t *testing.T) {
	if Inform.String() != "inform" || Request.String() != "request" {
		t.Fatal("performative names wrong")
	}
	if Performative(0).String() != "invalid" {
		t.Fatal("zero performative not invalid")
	}
	if StateActive.String() != "active" || AgentState(0).String() != "invalid" {
		t.Fatal("state names wrong")
	}
}

func TestTemplates(t *testing.T) {
	m := ACLMessage{Performative: Inform, ConversationID: "c1", Ontology: "o1"}
	if !MatchAnd(MatchPerformative(Inform), MatchConversation("c1"), MatchOntology("o1"))(m) {
		t.Fatal("MatchAnd rejected matching message")
	}
	if MatchAnd(MatchPerformative(Request))(m) {
		t.Fatal("MatchAnd accepted mismatched performative")
	}
}

func TestNewConversationIDUnique(t *testing.T) {
	a, b := NewConversationID("x"), NewConversationID("x")
	if a == b {
		t.Fatalf("conversation ids collide: %s", a)
	}
}

func TestReplyMetadata(t *testing.T) {
	m := ACLMessage{
		Performative: Request, Sender: "a", Receiver: "b",
		ConversationID: "c9", Protocol: "fipa-request", ReplyWith: "rw1",
	}
	r := m.Reply(Inform, []byte("x"))
	if r.Sender != "b" || r.Receiver != "a" || r.ConversationID != "c9" || r.InReplyTo != "rw1" {
		t.Fatalf("reply = %+v", r)
	}
	if !strings.Contains(m.String(), "request") {
		t.Fatalf("String = %s", m.String())
	}
}
