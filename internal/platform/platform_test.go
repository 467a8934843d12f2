package platform

import (
	"context"
	"errors"
	"strings"
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
	if got, ok := ca.Agent("echo"); !ok || got != a {
		t.Fatal("agent not listed in its container")
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

func TestAMS(t *testing.T) {
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
	if where, ok := p.WhereIs("a1"); !ok || where != "main" {
		t.Fatalf("WhereIs(a1) = %q, %v", where, ok)
	}
	// An agent whose setup fails leaves the AMS as it found it.
	if _, err := cb.CreateAgent("b2", failingBody{}); err == nil {
		t.Fatal("failing setup accepted")
	}
	if _, ok := p.WhereIs("b2"); ok {
		t.Fatal("AMS retains an agent whose setup failed")
	}
}

type failingBody struct{}

func (failingBody) Setup(*Agent) error { return errors.New("no") }

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
