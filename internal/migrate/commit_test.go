package migrate

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// registerRunning records app as running on host, as HostRuntime.Run does.
func registerRunning(t *testing.T, reg *cluster.Center, appName, host string) {
	t.Helper()
	if err := reg.RegisterApp(context.Background(), registry.AppRecord{Name: appName, Host: host, Description: playerDesc(), Running: true}); err != nil {
		t.Fatal(err)
	}
}

// runningHosts lists, sorted, the hosts whose record says appName runs.
func runningHosts(t testing.TB, reg *cluster.Center, appName string) []string {
	t.Helper()
	recs, err := reg.Registry().Apps()
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, rec := range recs {
		if rec.Name == appName && rec.Running {
			hosts = append(hosts, rec.Host)
		}
	}
	sort.Strings(hosts)
	return hosts
}

// watchedCatalog is a registry center that checks after every write
// that at most one record says the application runs, counts the calls
// each engine makes, and fails or acts at a chosen step.
type watchedCatalog struct {
	*cluster.Center
	t   *testing.T
	app string

	mu        sync.Mutex
	calls     map[string]int
	fail      string // "plan" or "move": that call fails
	afterMove func() // runs once a move committed
}

func newWatchedCatalog(t *testing.T, reg *cluster.Center, appName string) *watchedCatalog {
	return &watchedCatalog{Center: reg, t: t, app: appName, calls: make(map[string]int)}
}

func (c *watchedCatalog) count(call string) (fail bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[call]++
	return c.fail == call
}

func (c *watchedCatalog) takeCalls() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	calls := c.calls
	c.calls = make(map[string]int)
	return calls
}

// check runs after every write: handler goroutines make some of them, so
// it reports with Errorf.
func (c *watchedCatalog) check(op string) {
	if hosts := runningHosts(c.t, c.Center, c.app); len(hosts) > 1 {
		c.t.Errorf("after %s the registry lists %s running on %v", op, c.app, hosts)
	}
}

func (c *watchedCatalog) PlanMove(ctx context.Context, appName, destHost string, resources []owl.Resource, mode owl.MatchMode) (registry.MovePlan, error) {
	if c.count("plan") {
		return registry.MovePlan{}, errors.New("injected: plan-move failed")
	}
	return c.Center.PlanMove(ctx, appName, destHost, resources, mode)
}

func (c *watchedCatalog) MoveApp(ctx context.Context, rec registry.AppRecord, from string) (bool, error) {
	if c.count("move") {
		return false, errors.New("injected: move-app failed")
	}
	demoted, err := c.Center.MoveApp(ctx, rec, from)
	c.check("move-app")
	c.mu.Lock()
	after := c.afterMove
	c.mu.Unlock()
	if err == nil && after != nil {
		after()
	}
	return demoted, err
}

func (c *watchedCatalog) LookupApp(ctx context.Context, name, host string) (registry.AppRecord, bool, error) {
	c.count("lookup")
	return c.Center.LookupApp(ctx, name, host)
}

func (c *watchedCatalog) RegisterApp(ctx context.Context, rec registry.AppRecord) error {
	c.count("register")
	err := c.Center.RegisterApp(ctx, rec)
	c.check("register-app")
	return err
}

func (c *watchedCatalog) UnregisterApp(ctx context.Context, name, host string) error {
	c.count("unregister")
	err := c.Center.UnregisterApp(ctx, name, host)
	c.check("unregister-app")
	return err
}

// watchedRig is the Fig. 8 rig with both engines on one watchedCatalog
// and the player running — and registered running — on hostA.
func watchedRig(t *testing.T) (*rig, *watchedCatalog) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	registerRunning(t, r.reg, "player", "hostA")
	cat := newWatchedCatalog(t, r.reg, "player")
	r.engA.cat, r.engB.cat = cat, cat
	return r, cat
}

// localRing puts one engine per host on a LocalFabric, all on cat, with
// the media player running — and registered running — on the first.
func localRing(t *testing.T, reg *cluster.Center, cat Catalog, hosts ...string) []*Engine {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	engines := make([]*Engine, len(hosts))
	for i, h := range hosts {
		ep, err := fab.Attach(EndpointName(h), h)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = NewEngine(h, wsdl.DeviceProfile{}, ep, nil, nil, cat, CostProfile{})
	}
	player := demoapps.NewMediaPlayer(hosts[0], media.GenerateFile("song1", 64<<10, 3))
	if err := engines[0].Run(player); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterApp(context.Background(), registry.AppRecord{Name: player.Name(), Host: hosts[0],
		Description: player.Description(), Components: player.Components(), Running: true}); err != nil {
		t.Fatal(err)
	}
	return engines
}

// TestAtMostOneRunningRecordAtEveryWrite: with the move committed at the
// destination in one registry write, no write along a follow-me — adaptive
// ping-pong, static ring, or a migration that fails at any step — leaves
// two records saying the application runs. After every hop the one running
// record is the destination's; after every failure it is the source's, and
// the application runs there.
func TestAtMostOneRunningRecordAtEveryWrite(t *testing.T) {
	t.Run("adaptive ping-pong", func(t *testing.T) {
		r, _ := watchedRig(t)
		engines := []*Engine{r.engA, r.engB}
		for hop := 0; hop < 20; hop++ {
			from, to := engines[hop%2], engines[(hop+1)%2]
			if _, err := from.FollowMe(ctxT(t), "player", to.Host(), BindingAdaptive, owl.MatchSemantic); err != nil {
				t.Fatalf("hop %d: %v", hop, err)
			}
			if got := runningHosts(t, r.reg, "player"); !reflect.DeepEqual(got, []string{to.Host()}) {
				t.Fatalf("hop %d: running on %v, want [%s]", hop, got, to.Host())
			}
		}
	})
	t.Run("static ring of three", func(t *testing.T) {
		reg := newCenter(t)
		cat := newWatchedCatalog(t, reg, "smart-media-player")
		engines := localRing(t, reg, cat, "hostA", "hostB", "hostC")
		for hop := 0; hop < 20; hop++ {
			from, to := engines[hop%3], engines[(hop+1)%3]
			if _, err := from.FollowMe(ctxT(t), "smart-media-player", to.Host(), BindingStatic, owl.MatchSemantic); err != nil {
				t.Fatalf("hop %d: %v", hop, err)
			}
			if got := runningHosts(t, reg, "smart-media-player"); !reflect.DeepEqual(got, []string{to.Host()}) {
				t.Fatalf("hop %d: running on %v, want [%s]", hop, got, to.Host())
			}
		}
	})

	failures := []struct {
		name   string
		inject func(t *testing.T, r *rig, cat *watchedCatalog) (dest string)
	}{
		{"plan-move", func(t *testing.T, r *rig, cat *watchedCatalog) string {
			cat.fail = "plan"
			return "hostB"
		}},
		{"check-in send", func(t *testing.T, r *rig, cat *watchedCatalog) string {
			// hostC is in the space but nothing serves its engine endpoint.
			if _, err := r.net.AddHost("hostC", "lab-space", netsim.PentiumM_1600(), 0); err != nil {
				t.Fatal(err)
			}
			if err := r.dir.AddHost("hostC", "lab-space"); err != nil {
				t.Fatal(err)
			}
			return "hostC"
		}},
		{"move-app", func(t *testing.T, r *rig, cat *watchedCatalog) string {
			cat.fail = "move"
			return "hostB"
		}},
		{"destination rebind", func(t *testing.T, r *rig, cat *watchedCatalog) string {
			// The song's owner stops serving it: the remote bind fails.
			ep, _ := r.fab.Lookup(MediaEndpointName("hostA"))
			ep.Handle(media.MsgMeta, func(transport.Message) ([]byte, error) {
				return nil, errors.New("injected: media server down")
			})
			return "hostB"
		}},
	}
	for _, f := range failures {
		t.Run("fails at "+f.name, func(t *testing.T) {
			r, cat := watchedRig(t)
			inst, _ := r.engA.App("player")
			dest := f.inject(t, r, cat)
			if _, err := r.engA.FollowMe(ctxT(t), "player", dest, BindingAdaptive, owl.MatchSemantic); err == nil {
				t.Fatal("the migration succeeded")
			}
			if got, ok := r.engA.App("player"); !ok || got != inst || inst.State() != app.Running {
				t.Fatal("the application does not run at the source")
			}
			if _, ok := r.engB.App("player"); ok {
				t.Fatal("the destination holds an instance")
			}
			if got := runningHosts(t, r.reg, "player"); !reflect.DeepEqual(got, []string{"hostA"}) {
				t.Fatalf("running on %v, want [hostA]", got)
			}
		})
	}
}

// TestSourceDeathAfterCommitLeavesOneRunningRecord: the destination
// commits, and the source's endpoint closes before it reads the reply.
// The commit already demoted the source's record, so the registry lists
// the application running on the destination only — nothing is left for
// failover to resurrect at the dead source.
func TestSourceDeathAfterCommitLeavesOneRunningRecord(t *testing.T) {
	r, cat := watchedRig(t)
	cat.afterMove = func() { r.engA.ep.Close() }
	if _, err := r.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic); err == nil || !strings.Contains(err.Error(), transport.ErrClosed.Error()) {
		t.Fatalf("FollowMe from a source that died mid-check-in: err = %v, want %q", err, transport.ErrClosed)
	}
	if got := runningHosts(t, r.reg, "player"); !reflect.DeepEqual(got, []string{"hostB"}) {
		t.Fatalf("running on %v, want [hostB]", got)
	}
	// The source stopped listening at the commit; the destination goes on.
	waitFor(t, "the committed application to resume at the destination", func() bool {
		inst, ok := r.engB.App("player")
		return ok && inst.State() == app.Running
	})
}

// TestFollowMeRegistryRoundTrips: an adaptive leg asks the registry twice
// — one plan at the source, one commit at the destination — and a static
// hop once, the commit.
func TestFollowMeRegistryRoundTrips(t *testing.T) {
	r, cat := watchedRig(t)
	engines := []*Engine{r.engA, r.engB}
	for leg := 0; leg < 4; leg++ {
		from, to := engines[leg%2], engines[(leg+1)%2]
		if _, err := from.FollowMe(ctxT(t), "player", to.Host(), BindingAdaptive, owl.MatchSemantic); err != nil {
			t.Fatalf("leg %d: %v", leg, err)
		}
		if got, want := cat.takeCalls(), map[string]int{"plan": 1, "move": 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("adaptive leg %d asked the registry %v, want %v", leg, got, want)
		}
	}

	reg := newCenter(t)
	ringCat := newWatchedCatalog(t, reg, "smart-media-player")
	ring := localRing(t, reg, ringCat, "hostA", "hostB", "hostC")
	ringCat.takeCalls()
	for hop := 0; hop < 6; hop++ {
		if _, err := ring[hop%3].FollowMe(ctxT(t), "smart-media-player", ring[(hop+1)%3].Host(), BindingStatic, owl.MatchSemantic); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if got, want := ringCat.takeCalls(), map[string]int{"move": 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("static hop %d asked the registry %v, want %v", hop, got, want)
		}
	}
}

// TestDestinationStopsAtTheSourceBudget: the source's deadline rides in
// the check-in head. A destination whose remote bind stalls past it gives
// up with the source: no commit, no instance, and the source reports the
// timeout and runs the application again. Without the budget the
// destination would finish its restore on its own clock, register and
// resume a second instance.
func TestDestinationStopsAtTheSourceBudget(t *testing.T) {
	r := newRig(t, songSize)
	inst := r.startPlayer(t, songSize)
	registerRunning(t, r.reg, "player", "hostA")

	// The song's owner answers the destination's open, but only after
	// the source has given up.
	const stall = 600 * time.Millisecond
	real, err := r.fab.Attach("media-behind@hostA", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	media.ServeLibrary(r.libA, real)
	front, _ := r.fab.Lookup(MediaEndpointName("hostA"))
	served := make(chan struct{}, 4)
	front.Handle(media.MsgMeta, func(m transport.Message) ([]byte, error) {
		time.Sleep(stall)
		defer func() { served <- struct{}{} }()
		reply, err := front.Request(context.Background(), "media-behind@hostA", media.MsgMeta, m.Payload)
		return reply.Payload, err
	})

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err = r.engA.FollowMe(ctx, "player", "hostB", BindingAdaptive, owl.MatchSemantic)
	// Whichever side's clock runs out first, the source reports the
	// deadline: its own, or the destination's answer to the budget.
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("FollowMe past its deadline: err = %v, want %q", err, context.DeadlineExceeded)
	}
	if got, ok := r.engA.App("player"); !ok || got != inst || inst.State() != app.Running {
		t.Fatal("the application does not run at the source")
	}
	<-served // the stalled open has been answered: the destination could go on
	time.Sleep(100 * time.Millisecond)
	if _, ok := r.engB.App("player"); ok {
		t.Fatal("the destination resumed an instance after the source gave up")
	}
	if got := runningHosts(t, r.reg, "player"); !reflect.DeepEqual(got, []string{"hostA"}) {
		t.Fatalf("running on %v, want [hostA]", got)
	}
}
