package scenario

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func churnScenario(model string) *Scenario {
	c := &Churn{Model: model}
	switch model {
	case "poisson":
		c.Rate = 0.5
		c.Downtime = Duration(20 * time.Second)
	case "wave":
		c.Kill = 3
		c.Period = Duration(15 * time.Second)
	}
	return &Scenario{
		Name:     "churn-test",
		Seed:     42,
		Nodes:    20,
		Protocol: "chord",
		Join:     JoinSpec{Process: "staggered", Window: Duration(10 * time.Second)},
		Settle:   Duration(30 * time.Second),
		Phases: []Phase{
			{Name: "quiet", Duration: Duration(20 * time.Second)},
			{Name: "churn", Duration: Duration(60 * time.Second), Churn: c},
		},
	}
}

// TestPoissonChurnSchedule checks the kill process lands inside its phase,
// never touches the bootstrap, and pairs every kill with a revive one
// downtime later.
func TestPoissonChurnSchedule(t *testing.T) {
	s := churnScenario("poisson")
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	phase := sched.Phases[1]
	kills := map[int][]time.Duration{}
	revives := map[int][]time.Duration{}
	total := 0
	for _, op := range sched.Ops {
		switch op.Kind {
		case OpKill:
			if op.At < phase.Start || op.At >= phase.End {
				t.Errorf("kill at %v outside churn phase [%v, %v)", op.At, phase.Start, phase.End)
			}
			if op.Node == 0 {
				t.Error("churn killed the bootstrap node")
			}
			kills[op.Node] = append(kills[op.Node], op.At)
			total++
		case OpRevive:
			revives[op.Node] = append(revives[op.Node], op.At)
		}
	}
	if total == 0 {
		t.Fatal("poisson churn produced no kills")
	}
	// Per node, kills and revives must alternate (a node is never killed
	// while dead) and each revive lands exactly one downtime after its
	// kill. Kill times within a node are emitted in order.
	for n, ks := range kills {
		rs := revives[n]
		if len(rs) < len(ks)-1 || len(rs) > len(ks) {
			t.Fatalf("node %d: %d kills but %d revives", n, len(ks), len(rs))
		}
		for i, kt := range ks {
			if i > 0 && rs[i-1] >= kt {
				t.Errorf("node %d killed at %v before reviving at %v", n, kt, rs[i-1])
			}
			if i < len(rs) {
				if want := kt + 20*time.Second; rs[i] != want {
					t.Errorf("node %d killed at %v revives at %v, want %v", n, kt, rs[i], want)
				}
			}
		}
	}
}

// TestWaveChurnSchedule checks massacres: Kill simultaneous victims every
// period, all distinct and alive at the time.
func TestWaveChurnSchedule(t *testing.T) {
	s := churnScenario("wave")
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	phase := sched.Phases[1]
	byTime := map[time.Duration][]int{}
	for _, op := range sched.Ops {
		if op.Kind == OpKill {
			byTime[op.At] = append(byTime[op.At], op.Node)
		}
	}
	if len(byTime) == 0 {
		t.Fatal("wave churn produced no waves")
	}
	for at, victims := range byTime {
		if (at-phase.Start)%(15*time.Second) != 0 {
			t.Errorf("wave at %v is not on a period boundary", at)
		}
		if len(victims) != 3 {
			t.Errorf("wave at %v killed %d nodes, want 3", at, len(victims))
		}
		seen := map[int]bool{}
		for _, v := range victims {
			if seen[v] {
				t.Errorf("wave at %v killed node %d twice", at, v)
			}
			seen[v] = true
		}
	}
	// Without downtime the kills are permanent: across the whole phase no
	// node may die twice.
	dead := map[int]bool{}
	for _, op := range sched.Ops {
		if op.Kind == OpKill {
			if dead[op.Node] {
				t.Errorf("node %d killed twice without a revive", op.Node)
			}
			dead[op.Node] = true
		}
	}
}

// TestCompileDeterminism requires two compilations of the same scenario to
// be structurally identical.
func TestCompileDeterminism(t *testing.T) {
	for _, model := range []string{"poisson", "wave"} {
		a, err := Compile(churnScenario(model))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(churnScenario(model))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Ops, b.Ops) {
			t.Fatalf("%s: schedules differ across compilations", model)
		}
	}
}

// TestCompileSeedSensitivity: a different seed must actually change the
// schedule (otherwise the PRNG is not wired through).
func TestCompileSeedSensitivity(t *testing.T) {
	s1 := churnScenario("poisson")
	s2 := churnScenario("poisson")
	s2.Seed = 43
	a, _ := Compile(s1)
	b, _ := Compile(s2)
	if reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestWorkloadOps checks lookup storms stay inside their phase and carry
// unique op ids.
func TestWorkloadOps(t *testing.T) {
	s := churnScenario("poisson")
	s.Phases[0].Workload = &Workload{Kind: WlLookups, Rate: 2}
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	phase := sched.Phases[0]
	ids := map[int]bool{}
	count := 0
	for _, op := range sched.Ops {
		if op.Kind != OpLookup {
			continue
		}
		count++
		if op.At < phase.Start || op.At >= phase.End {
			t.Errorf("lookup at %v outside phase [%v, %v)", op.At, phase.Start, phase.End)
		}
		if ids[op.ID] {
			t.Errorf("duplicate op id %d", op.ID)
		}
		ids[op.ID] = true
		if op.Size < 8 {
			t.Errorf("lookup payload %d too small", op.Size)
		}
	}
	if count == 0 {
		t.Fatal("no lookups generated")
	}
	if sched.Lookups != count {
		t.Errorf("Lookups = %d, counted %d", sched.Lookups, count)
	}
}

// TestPartitionEventCompiles checks fraction → side size and the op order
// invariant (sorted by phase, then time).
func TestPartitionEventCompiles(t *testing.T) {
	s := churnScenario("poisson")
	s.Phases[1].Events = []Event{
		{At: Duration(5 * time.Second), Kind: EvPartition, Fraction: 0.25},
		{At: Duration(30 * time.Second), Kind: EvHeal},
	}
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var part, heal *Op
	for i := range sched.Ops {
		switch sched.Ops[i].Kind {
		case OpPartition:
			part = &sched.Ops[i]
		case OpHeal:
			heal = &sched.Ops[i]
		}
	}
	if part == nil || heal == nil {
		t.Fatal("partition/heal ops missing")
	}
	if part.SideA != 5 {
		t.Errorf("side A = %d, want 5 (25%% of 20)", part.SideA)
	}
	if want := sched.Phases[1].Start + 5*time.Second; part.At != want {
		t.Errorf("partition at %v, want %v", part.At, want)
	}
	if heal.At <= part.At {
		t.Error("heal before partition")
	}
	for i := 1; i < len(sched.Ops); i++ {
		a, b := sched.Ops[i-1], sched.Ops[i]
		if a.Phase > b.Phase || (a.Phase == b.Phase && a.At > b.At) {
			t.Fatalf("ops out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestValidateErrors exercises the scenario validator.
func TestValidateErrors(t *testing.T) {
	base := func() *Scenario { return churnScenario("poisson") }
	cases := []struct {
		name string
		mod  func(*Scenario)
	}{
		{"too few nodes", func(s *Scenario) { s.Nodes = 1 }},
		{"no phases", func(s *Scenario) { s.Phases = nil }},
		{"bad join", func(s *Scenario) { s.Join.Process = "teleport" }},
		{"staggered no window", func(s *Scenario) { s.Join = JoinSpec{Process: "staggered"} }},
		{"bad churn model", func(s *Scenario) { s.Phases[1].Churn.Model = "meteor" }},
		{"poisson no rate", func(s *Scenario) { s.Phases[1].Churn.Rate = 0 }},
		{"bad event kind", func(s *Scenario) {
			s.Phases[0].Events = []Event{{Kind: "frobnicate"}}
		}},
		{"event outside phase", func(s *Scenario) {
			s.Phases[0].Events = []Event{{Kind: EvHeal, At: Duration(time.Hour)}}
		}},
		{"partition fraction", func(s *Scenario) {
			s.Phases[0].Events = []Event{{Kind: EvPartition, Fraction: 1.5}}
		}},
		{"event node range", func(s *Scenario) {
			s.Phases[0].Events = []Event{{Kind: EvKill, Node: 99}}
		}},
		{"bad workload", func(s *Scenario) {
			s.Phases[0].Workload = &Workload{Kind: "mining", Rate: 1}
		}},
		{"degrade loss range", func(s *Scenario) {
			s.Phases[0].Events = []Event{{Kind: EvDegrade, Loss: 1.5}}
		}},
		{"degrade latency factor", func(s *Scenario) {
			s.Phases[0].Events = []Event{{Kind: EvDegrade, LatencyFactor: 0.5}}
		}},
		{"workload no rate", func(s *Scenario) {
			s.Phases[0].Workload = &Workload{Kind: WlLookups}
		}},
	}
	for _, c := range cases {
		s := base()
		c.mod(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
	}
}

// TestValidateBoundsSchedule: a file whose churn, join or workload would
// make Compile build more than MaxOps ops, or whose timeline overflows, is
// rejected by Validate with an error naming the phase and the field; the two
// shapes that used to hang Compile are among them.
func TestValidateBoundsSchedule(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"wave every 2 ns",
			`{"nodes":2,"join":{"window":"1s"},"phases":[{"duration":"4s"},{"duration":"3s","churn":{"model":"wave","kill":1,"period":2}}]}`,
			"phase 1 (): churn expects"},
		{"poisson churn at 1e9/s",
			`{"nodes":2,"phases":[{"name":"storm","duration":"4s","churn":{"model":"poisson","rate":1e9}}]}`,
			"phase 0 (storm): churn expects"},
		{"workload at 1e9/s",
			`{"nodes":2,"phases":[{"name":"load","duration":"1s","workload":{"kind":"lookups","rate":1e9}}]}`,
			"phase 0 (load): workload rate expects"},
		{"ops add up across phases",
			`{"nodes":2,"phases":[{"name":"a","duration":"1000s","workload":{"kind":"lookups","rate":600}},{"name":"b","duration":"1000s","workload":{"kind":"lookups","rate":600}}]}`,
			"phase 1 (b): workload rate expects 600000 ops, 1200002 in all"},
		{"join", `{"nodes":2000000,"phases":[{"duration":"1s"}]}`, "join: 2000000 nodes"},
		{"timeline overflow",
			`{"nodes":2,"phases":[{"name":"long","duration":"400000h"},{"name":"longer","duration":"400000h"}]}`,
			"phase 1 (longer): duration"},
		{"negative drain", `{"nodes":2,"drain":"-1s","phases":[{"duration":"1s"}]}`, "drain -1s"},
	} {
		_, err := Parse([]byte(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Parse error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateSites: a sites value the site matrix cannot be built from is
// rejected by Validate with an error naming the field, and a hostile count
// fails before anything is sized by it.
func TestValidateSites(t *testing.T) {
	scen := func(fields string) string {
		return `{"name":"s","nodes":16,` + fields + `,"phases":[{"duration":"1s"}]}`
	}
	for _, c := range []struct{ name, src, want string }{
		{"negative", scen(`"sites":-1`), `scenario "s": sites: -1 is outside [0, 256]`},
		{"hostile", scen(`"sites":1000000000`), "sites: 1000000000 is outside [0, 256]"},
		{"above the bound", `{"name":"s","nodes":514,"sites":257,"phases":[{"duration":"1s"}]}`, "sites: 257 is outside"},
		{"more sites than nodes", scen(`"sites":32`), "sites: 32 sites do not divide 16 nodes"},
		{"uneven", scen(`"sites":3`), "sites: 3 sites do not divide 16 nodes"},
		{"with routers", scen(`"sites":4,"routers":100`), "sites: a site matrix has no routers to size"},
	} {
		_, err := Parse([]byte(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Parse error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := Parse([]byte(scen(`"sites":4`))); err != nil {
		t.Fatalf("4 sites of 16 nodes: %v", err)
	}
}

// TestArrivalsStepAtLeastOneNanosecond: a rate so high that every
// interarrival rounds to zero still walks forward, 1 ns a step, so Compile
// returns with at most one op per nanosecond of the phase.
func TestArrivalsStepAtLeastOneNanosecond(t *testing.T) {
	s, err := Parse([]byte(`{"nodes":2,"phases":[{"duration":"10ns","workload":{"kind":"lookups","rate":1e12}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Lookups != 9 {
		t.Fatalf("%d lookups in a 10 ns phase, want one at each of the 9 instants inside it", sched.Lookups)
	}
}

// TestPickVictimMatchesScan: the Fenwick descent picks, for every draw, the
// node a scan of the population in index order picks — the rule every
// golden's kill schedule was drawn by — with node 0 up and down, and it
// reports exhaustion when only the bootstrap is left.
func TestPickVictimMatchesScan(t *testing.T) {
	scan := func(up []bool, k int) int {
		for i := 1; i < len(up); i++ {
			if up[i] {
				if k == 0 {
					return i
				}
				k--
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 7, 64, 100} {
		p := newPopulation(n)
		for step := 0; step < 2000; step++ {
			p.setUp(rng.Intn(n), rng.Intn(3) > 0)
			seed := rng.Int63()
			got := p.pickVictim(rand.New(rand.NewSource(seed)))
			want := -1
			if c := p.upCount - boolInt(p.up[0]); c > 0 {
				want = scan(p.up, rand.New(rand.NewSource(seed)).Intn(c))
			}
			if got != want {
				t.Fatalf("n=%d step %d: picked %d, the scan picks %d", n, step, got, want)
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestJSONRoundTrip parses a JSON scenario with duration strings.
func TestJSONRoundTrip(t *testing.T) {
	src := `{
	  "name": "json-test",
	  "seed": 7,
	  "nodes": 10,
	  "protocol": "chord",
	  "join": {"process": "poisson", "rate": 2},
	  "settle": "45s",
	  "phases": [
	    {"name": "load", "duration": "30s",
	     "churn": {"model": "wave", "kill": 2, "period": "10s", "downtime": "8s"},
	     "events": [{"at": "5s", "kind": "partition", "fraction": 0.5},
	                {"at": "20s", "kind": "heal"}],
	     "workload": {"kind": "lookups", "rate": 1.5, "size": 32}}
	  ]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Settle.D() != 45*time.Second {
		t.Errorf("settle = %v", s.Settle.D())
	}
	if s.Phases[0].Churn.Period.D() != 10*time.Second {
		t.Errorf("period = %v", s.Phases[0].Churn.Period.D())
	}
	if s.Phases[0].Events[0].Fraction != 0.5 {
		t.Errorf("fraction = %v", s.Phases[0].Events[0].Fraction)
	}
	if _, err := Compile(s); err != nil {
		t.Fatal(err)
	}
}
