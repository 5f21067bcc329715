package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/guard"
)

func TestDecideDeterministic(t *testing.T) {
	a := New(7, 0.5)
	b := New(7, 0.5)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fault-%d", i)
		if a.Decide("site", key) != b.Decide("site", key) {
			t.Fatalf("two injectors with the same seed disagree on %q", key)
		}
	}
}

func TestDecideProbability(t *testing.T) {
	in := New(42, 0.1)
	fired := 0
	for i := 0; i < 1000; i++ {
		if in.Decide("atpg.fault", fmt.Sprintf("f%d", i)) != None {
			fired++
		}
	}
	// 10% nominal; allow wide slack, the point is "some but not most".
	if fired < 50 || fired > 200 {
		t.Fatalf("prob 0.1 fired on %d/1000 keys", fired)
	}
	if New(42, 0).Decide("s", "k") != None {
		t.Fatal("prob 0 fired")
	}
}

func TestSiteRestriction(t *testing.T) {
	in := New(1, 1, AtSites("mna.solve"))
	if in.Decide("atpg.fault", "k") != None {
		t.Fatal("site restriction ignored")
	}
	if in.Decide("mna.solve", "k") == None {
		t.Fatal("restricted site never fires at prob 1")
	}
}

func TestFireActions(t *testing.T) {
	if err := Step(context.Background(), "s", "k"); err != nil {
		t.Fatalf("Step without injector = %v, want nil", err)
	}

	in := New(1, 1, WithAction(Budget))
	err := in.Fire("s", "k")
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("Budget action = %v, want ErrBudgetExceeded", err)
	}

	in = New(1, 1, WithAction(Timeout))
	if err := in.Fire("s", "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Timeout action = %v, want DeadlineExceeded", err)
	}

	in = New(1, 1, WithAction(Panic))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Panic action did not panic")
			}
		}()
		in.Fire("s", "k")
	}()
}

func TestStepThroughContext(t *testing.T) {
	ctx := Into(context.Background(), New(3, 1, WithAction(Error)))
	if err := Step(ctx, "s", "k"); err == nil {
		t.Fatal("Step with injector at prob 1 returned nil")
	}
	if From(ctx) == nil {
		t.Fatal("From lost the injector")
	}
}

func TestGuardIntegration(t *testing.T) {
	// Every chaos action lands in the guard classification it targets.
	cases := []struct {
		action Action
		class  guard.Class
	}{
		{Panic, guard.Aborted},
		{Error, guard.Aborted},
		{Budget, guard.Aborted},
		{Timeout, guard.TimedOut},
	}
	for _, c := range cases {
		ctx := Into(context.Background(), New(5, 1, WithAction(c.action)))
		out := guard.Do(ctx, nil, "item", func(ctx context.Context) error {
			return Step(ctx, "site", "key")
		})
		if out.Class != c.class {
			t.Fatalf("action %v classified as %v, want %v", c.action, out.Class, c.class)
		}
	}
}

func TestSiteRegistry(t *testing.T) {
	sites := Sites()
	if len(sites) == 0 {
		t.Fatal("empty site registry")
	}
	seen := map[string]bool{}
	for _, s := range sites {
		if s == "" {
			t.Fatal("registry contains an empty site name")
		}
		if seen[s] {
			t.Fatalf("duplicate registered site %q", s)
		}
		seen[s] = true
		if !KnownSite(s) {
			t.Errorf("KnownSite(%q) = false for a registered site", s)
		}
	}
	if KnownSite("no.such.site") {
		t.Error(`KnownSite("no.such.site") = true`)
	}
	// The live ops server's SSE write boundary is a registered site, so
	// msatpg -chaos-sites live.sse.write can target streaming clients.
	if !seen[SiteLiveSSE] {
		t.Errorf("registry %v is missing SiteLiveSSE (%q)", sites, SiteLiveSSE)
	}
	if !KnownSite("live.sse.write") {
		t.Error(`KnownSite("live.sse.write") = false`)
	}
	// The sharded ATPG runtime's worker boundary is a registered site, so
	// chaos tests can kill individual shards mid-run.
	if !seen[SiteATPGShard] {
		t.Errorf("registry %v is missing SiteATPGShard (%q)", sites, SiteATPGShard)
	}
	if !KnownSite("atpg.shard") {
		t.Error(`KnownSite("atpg.shard") = false`)
	}
}

// TestFromFlags checks the parser both commands share: injection off
// below a positive probability, the action and site list applied as
// given, and unknown values rejected with the flag named.
func TestFromFlags(t *testing.T) {
	if in, err := FromFlags(0, 1, "no.such.site", "explode"); in != nil || err != nil {
		t.Errorf("prob 0: injector %v, err %v; want nil, nil", in, err)
	}
	in, err := FromFlags(1, 7, " atpg.fault, ,core.element", "budget")
	if err != nil {
		t.Fatalf("FromFlags: %v", err)
	}
	if got := in.Decide(SiteCoreElement, "Rd"); got != Budget {
		t.Errorf("listed site decides %v, want budget", got)
	}
	if got := in.Decide(SiteMNASolve, "Rd"); got != None {
		t.Errorf("unlisted site decides %v, want none", got)
	}
	for _, tc := range []struct{ sites, action, flag string }{
		{"", "explode", "-chaos-action"},
		{"atpg.fault,no.such.site", "panic", "-chaos-sites"},
	} {
		if _, err := FromFlags(0.5, 1, tc.sites, tc.action); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("FromFlags(%q, %q) error = %v, want one naming %s", tc.sites, tc.action, err, tc.flag)
		}
	}
}
