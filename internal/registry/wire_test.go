package registry

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/transport"
)

func goldenWire(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The recorded request bodies of a follow-me's two registry round trips.
// One map entry each: gob writes maps in random order.
var (
	goldenPlanMove = planMoveReq{
		App: "player", DestHost: "hostB", Mode: owl.MatchSemantic,
		Resources: []owl.Resource{{
			ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 2 << 20,
			Attrs: map[string]string{"component": "song1"},
		}},
	}
	goldenMoveApp = moveAppReq{
		Rec: AppRecord{
			Name: "player", Host: "hostB", Space: "lab", Description: testDesc("player"),
			Components: []string{"main-ui", "codec-logic"}, Running: true,
		},
		From: "hostA",
	}
)

// TestGoldenRequestBodies pins the sealed gob bodies of registry.plan-move
// and registry.move-app. Gob assigns type ids per process, so a recorded
// body must decode to the recorded value; it need not re-encode the same.
func TestGoldenRequestBodies(t *testing.T) {
	t.Run("plan-move", func(t *testing.T) {
		var req planMoveReq
		if err := transport.DecodeSealed(goldenWire(t, "plan-move-req.gob"), &req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, goldenPlanMove) {
			t.Fatalf("decoded %+v, want %+v", req, goldenPlanMove)
		}
	})
	t.Run("move-app", func(t *testing.T) {
		var req moveAppReq
		if err := transport.DecodeSealed(goldenWire(t, "move-app-req.gob"), &req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, goldenMoveApp) {
			t.Fatalf("decoded %+v, want %+v", req, goldenMoveApp)
		}
	})
}
