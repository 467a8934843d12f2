package platform

// BehaviourStatus is what a behaviour's Action reports to the scheduler.
type BehaviourStatus int

// Behaviour statuses.
const (
	// StatusContinue reschedules the behaviour in the next round.
	StatusContinue BehaviourStatus = iota + 1
	// StatusBlocked parks the behaviour until new mail arrives.
	StatusBlocked
	// StatusDone removes the behaviour.
	StatusDone
)

// Behaviour is a JADE-style unit of agent activity, executed repeatedly by
// the agent's scheduler goroutine. Action must not block indefinitely —
// use the agent's non-blocking Receive and return StatusBlocked to wait
// for mail.
type Behaviour interface {
	Action(a *Agent) BehaviourStatus
}

// BehaviourFunc adapts a function to Behaviour.
type BehaviourFunc func(a *Agent) BehaviourStatus

// Action implements Behaviour.
func (f BehaviourFunc) Action(a *Agent) BehaviourStatus { return f(a) }

// MessageHandler runs fn for every mailbox message matching tmpl and
// blocks between messages — the workhorse for reactive agents.
func MessageHandler(tmpl Template, fn func(a *Agent, msg ACLMessage)) Behaviour {
	return BehaviourFunc(func(a *Agent) BehaviourStatus {
		msg, ok := a.Receive(tmpl)
		if !ok {
			return StatusBlocked
		}
		fn(a, msg)
		return StatusContinue
	})
}
