package core

import (
	"encoding/json"
	"os"
	"testing"

	"hybridwh/internal/analyzer"
	"hybridwh/internal/cluster"
	"hybridwh/internal/datagen"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
)

// multiGoldenPath holds the counter and bus snapshots of the N-way executor
// on TestMultiPipelineMatchesGoldenCounters's cases. They were recorded from
// the row-materializing executor that preceded the batch-at-a-time one.
const multiGoldenPath = "testdata/multi_counters.golden.json"

const snowflakeTestSQL = `select f.grp, count(*), sum(f.measure), avg(f.measure)
	from fact f
	join customer c on f.fk_customer = c.key
	join region r on c.fk_region = r.key
	join store st on f.fk_store = st.key
	where r.attr < 600 and st.attr < 800 and c.attr < 900
	group by f.grp`

func smallSnowflake() datagen.Star {
	return datagen.Star{
		FactRows: 4000,
		Dims: []datagen.DimSpec{
			{Name: "customer", Rows: 300, Sub: &datagen.DimSpec{Name: "region", Rows: 20}},
			{Name: "store", Rows: 40},
		},
		Seed:   11,
		Groups: 5,
	}
}

// mixedAdvise repartitions the dimensions estimated above 20 rows and
// broadcasts the rest: on smallStar the plan joins store by broadcast (the
// fact scan stays local), then re-shuffles the intermediate result for
// product and again for customer.
func mixedAdvise(es analyzer.EdgeStats) (plan.EdgeAlg, string) {
	if es.DimRows > 20 {
		return plan.EdgeRepartition, "forced repartition"
	}
	return plan.EdgeBroadcast, "forced broadcast"
}

// multiGoldenCase is one RunMulti configuration of the golden.
type multiGoldenCase struct {
	name    string
	star    datagen.Star
	sql     string
	cfg     Config
	cascade bool
	advise  analyzer.AdviseFn
}

// goldenBatchRows is the golden cases' wire batch size: above the batcher's
// initial buffer capacity, so a frame boundary that followed the buffer's
// capacity instead of BatchRows would move the message counters.
const goldenBatchRows = 100

var multiGoldenCases = []multiGoldenCase{
	{name: "star/cascade", star: smallStar(), sql: starTestSQL, cfg: Config{BatchRows: goldenBatchRows},
		cascade: true, advise: mixedAdvise},
	{name: "star/no-cascade", star: smallStar(), sql: starTestSQL, cfg: Config{BatchRows: goldenBatchRows},
		cascade: false, advise: mixedAdvise},
	{name: "star/adaptive", star: smallStar(), sql: starTestSQL, cfg: Config{BatchRows: goldenBatchRows, AdaptiveSwitch: true},
		advise: func(analyzer.EdgeStats) (plan.EdgeAlg, string) { return plan.EdgeRepartition, "forced repartition" }},
	{name: "snowflake", star: smallSnowflake(), sql: snowflakeTestSQL, cfg: Config{BatchRows: goldenBatchRows},
		cascade: true, advise: mixedAdvise},
}

// goldenCaseNamed returns the golden case called name.
func goldenCaseNamed(t *testing.T, name string) multiGoldenCase {
	t.Helper()
	for _, c := range multiGoldenCases {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no golden case %q", name)
	return multiGoldenCase{}
}

// runMultiGolden runs one case on a fresh 3 DB x 4 JEN fixture at
// WorkerThreads=1, checks the result against the nested-loop reference and
// returns its deterministic footprint.
func runMultiGolden(t *testing.T, c multiGoldenCase) countersRun {
	t.Helper()
	f := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, c.star, c.cfg)
	defer f.eng.Close()
	f.env.Advise = c.advise
	f.env.Options.CascadeBloom = c.cascade
	mq := f.multiPlan(t, c.sql)
	f.eng.Recorder().Reset()
	f.eng.Bus().Counters().Reset()
	res, err := f.eng.RunMulti(mq)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	assertRowsEqual(t, res.Rows, f.multiReference(t, c.sql))
	bus := map[string]int64{}
	for _, cl := range []cluster.LinkClass{cluster.IntraDB, cluster.IntraHDFS, cluster.Cross} {
		bus["bytes."+cl.String()] = f.eng.Bus().Counters().Bytes(cl)
		bus["msgs."+cl.String()] = f.eng.Bus().Counters().Messages(cl)
	}
	return countersRun{Metrics: dropThreadSplit(res.Metrics), Bus: bus}
}

// TestMultiPipelineMatchesGoldenCounters runs the 3-way star with cascaded
// Blooms on and off, with the adaptive edge switch, and a snowflake. Every
// result must equal the nested-loop reference, and every deterministic
// counter and every bus byte and message must equal the golden, so a change
// to the N-way executor cannot silently move what crosses the wire.
func TestMultiPipelineMatchesGoldenCounters(t *testing.T) {
	data, err := os.ReadFile(multiGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]countersRun
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(multiGoldenCases) {
		t.Fatalf("golden has %d cases, want %d", len(golden), len(multiGoldenCases))
	}
	for _, c := range multiGoldenCases {
		g, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: missing from the golden", c.name)
		}
		got := runMultiGolden(t, c)
		diffCounters(t, c.name+" metrics", g.Metrics, got.Metrics)
		diffCounters(t, c.name+" bus", g.Bus, got.Bus)
	}
}
