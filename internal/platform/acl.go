// Package platform implements the agent platform MDAgent runs on — the
// from-scratch substitute for JADE 3.4 (paper §5: "the agent server is
// JADE 3.4 ... Both autonomous agents and mobile agents are implemented as
// specific agents inheriting JADE's Agent class"). It provides
// FIPA-flavoured ACL messages, JADE-style behaviours scheduled on a
// per-agent goroutine, agent lifecycle management, containers with an AMS
// (agent directory), and remote messaging over internal/transport. Platform agents do not move: applications move
// through migrate.Engine, which the mobile agents drive (DESIGN.md §3.1).
package platform

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Performative is the FIPA ACL speech act of a message.
type Performative int

// FIPA performatives used by MDAgent's agents.
const (
	Inform Performative = iota + 1
	Request
	Agree
	Refuse
	Failure
	QueryRef
	InformRef
	Propose
	AcceptProposal
	RejectProposal
	Subscribe
	Cancel
)

var performativeNames = map[Performative]string{
	Inform:         "inform",
	Request:        "request",
	Agree:          "agree",
	Refuse:         "refuse",
	Failure:        "failure",
	QueryRef:       "query-ref",
	InformRef:      "inform-ref",
	Propose:        "propose",
	AcceptProposal: "accept-proposal",
	RejectProposal: "reject-proposal",
	Subscribe:      "subscribe",
	Cancel:         "cancel",
}

func (p Performative) String() string {
	if n, ok := performativeNames[p]; ok {
		return n
	}
	return "invalid"
}

// ACLMessage is a FIPA-ACL-style message between agents.
type ACLMessage struct {
	Performative   Performative
	Sender         string // fully qualified agent name
	Receiver       string
	ConversationID string
	Protocol       string // e.g. "fipa-request"
	Ontology       string // e.g. "mdagent-mobility"
	ReplyWith      string
	InReplyTo      string
	Content        []byte // application payload (gob/JSON per ontology)
}

// String renders a compact human-readable form for logs.
func (m ACLMessage) String() string {
	return fmt.Sprintf("(%s :from %s :to %s :conv %s :bytes %d)",
		m.Performative, m.Sender, m.Receiver, m.ConversationID, len(m.Content))
}

// Reply builds a reply skeleton: receiver/sender swapped, conversation
// preserved, in-reply-to filled from reply-with.
func (m ACLMessage) Reply(p Performative, content []byte) ACLMessage {
	return ACLMessage{
		Performative:   p,
		Sender:         m.Receiver,
		Receiver:       m.Sender,
		ConversationID: m.ConversationID,
		Protocol:       m.Protocol,
		Ontology:       m.Ontology,
		InReplyTo:      m.ReplyWith,
		Content:        content,
	}
}

// Template filters mailbox messages.
type Template func(ACLMessage) bool

// MatchPerformative accepts messages with the given performative.
func MatchPerformative(p Performative) Template {
	return func(m ACLMessage) bool { return m.Performative == p }
}

// MatchConversation accepts messages in the given conversation.
func MatchConversation(id string) Template {
	return func(m ACLMessage) bool { return m.ConversationID == id }
}

// MatchOntology accepts messages with the given ontology.
func MatchOntology(o string) Template {
	return func(m ACLMessage) bool { return m.Ontology == o }
}

// MatchAnd conjoins templates.
func MatchAnd(ts ...Template) Template {
	return func(m ACLMessage) bool {
		for _, t := range ts {
			if !t(m) {
				return false
			}
		}
		return true
	}
}

var convCounter atomic.Uint64

// NewConversationID returns a process-unique conversation id.
func NewConversationID(prefix string) string {
	return prefix + "-" + strconv.FormatUint(convCounter.Add(1), 10)
}
