package core

import (
	"bytes"
	"slices"
	"testing"

	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// TestChooseJoinBoundaries locks in the cost-based plan advisor's
// switch behavior (Section 5.3.2 / the AutoPlan advisor) before the
// multi-tenant scheduler reuses it across tenants: the advisor must
// scan (full outer join) when the touched-vertex estimate reaches the
// selectivity threshold and probe (left outer join) strictly below it,
// and plan hints must be honored verbatim when AutoPlan is off.
func TestChooseJoinBoundaries(t *testing.T) {
	const n = 1000                                           // NumVertices; threshold = lojSelectivityThreshold * n
	threshold := int64(lojSelectivityThreshold * float64(n)) // 250

	cases := []struct {
		name     string
		autoPlan bool
		join     pregel.JoinKind
		ss       int64
		messages int64
		live     int64
		vertices int64
		want     pregel.JoinKind
	}{
		{
			name: "autoplan-off-forced-fullouter",
			join: pregel.FullOuterJoin, ss: 5,
			messages: 1, live: 1, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name: "autoplan-off-forced-leftouter",
			join: pregel.LeftOuterJoin, ss: 5,
			// Dense superstep: a forced LOJ hint must still probe.
			messages: n, live: n, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name:     "superstep1-always-scans",
			autoPlan: true, join: pregel.LeftOuterJoin, ss: 1,
			messages: 0, live: 0, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "sparse-below-threshold-probes",
			autoPlan: true, ss: 2,
			messages: threshold/2 - 1, live: threshold / 2, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name:     "exactly-at-threshold-scans",
			autoPlan: true, ss: 2,
			messages: threshold / 2, live: threshold / 2, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "just-above-threshold-scans",
			autoPlan: true, ss: 2,
			messages: threshold / 2, live: threshold/2 + 1, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "dense-scans",
			autoPlan: true, ss: 3,
			messages: n, live: n, vertices: n,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "all-halted-no-messages-probes",
			autoPlan: true, ss: 4,
			messages: 0, live: 0, vertices: n,
			want: pregel.LeftOuterJoin,
		},
		{
			name:     "empty-graph-scans",
			autoPlan: true, ss: 2,
			messages: 0, live: 0, vertices: 0,
			want: pregel.FullOuterJoin,
		},
		{
			name:     "autoplan-ignores-leftouter-hint-when-dense",
			autoPlan: true, join: pregel.LeftOuterJoin, ss: 2,
			messages: n / 2, live: n / 2, vertices: n,
			want: pregel.FullOuterJoin,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := &runState{
				job: &pregel.Job{
					Name:     "plan-" + tc.name,
					Join:     tc.join,
					AutoPlan: tc.autoPlan,
				},
				gs: globalState{
					Superstep:    tc.ss - 1,
					Messages:     tc.messages,
					LiveVertices: tc.live,
					NumVertices:  tc.vertices,
				},
			}
			if got := rs.chooseJoin(tc.ss); got != tc.want {
				t.Fatalf("chooseJoin(ss=%d, msgs=%d, live=%d, |V|=%d, auto=%v, hint=%v) = %v, want %v",
					tc.ss, tc.messages, tc.live, tc.vertices, tc.autoPlan, tc.join, got, tc.want)
			}
		})
	}
}

// TestNeedVid pins the Vid-index maintenance rule the advisor depends
// on: the live-vertex index must exist for the LOJ plan and whenever
// AutoPlan may switch to it.
func TestNeedVid(t *testing.T) {
	for _, tc := range []struct {
		join pregel.JoinKind
		auto bool
		want bool
	}{
		{pregel.FullOuterJoin, false, false},
		{pregel.LeftOuterJoin, false, true},
		{pregel.FullOuterJoin, true, true},
		{pregel.LeftOuterJoin, true, true},
	} {
		rs := &runState{job: &pregel.Job{Join: tc.join, AutoPlan: tc.auto}}
		if got := rs.needVid(); got != tc.want {
			t.Fatalf("needVid(join=%v, auto=%v) = %v, want %v", tc.join, tc.auto, got, tc.want)
		}
	}
}

// TestMsgCombinerFoldsInOwnBuffer: the message combiner folds into a
// payload buffer its accumulator owns, so after the first Add a summing
// fold allocates nothing, and it never writes to the bytes First was
// given (First's argument may alias a frame the caller still reads).
func TestMsgCombinerFoldsInOwnBuffer(t *testing.T) {
	msg := func(v float64) tuple.Tuple {
		d := pregel.Double(v)
		return tuple.Tuple{tuple.EncodeUint64(7), pregel.EncodeMsgList(&d)}
	}
	sum := &msgCombiner{job: &pregel.Job{
		Codec: pregel.Codec{NewMessage: pregel.NewDouble},
		Combiner: pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
			*a.(*pregel.Double) += *b.(*pregel.Double)
			return a
		}),
	}}
	first, one := msg(1), msg(1)
	firstPayload := slices.Clone(first[1])
	acc := sum.First(first)
	acc = sum.Add(acc, one)
	if allocs := testing.AllocsPerRun(100, func() { acc = sum.Add(acc, one) }); allocs != 0 {
		t.Fatalf("steady-state Add allocates %.1f times", allocs)
	}
	vals, err := sum.job.Codec.DecodeMsgList(acc[1])
	if err != nil || len(vals) != 1 || *vals[0].(*pregel.Double) != 103 {
		t.Fatalf("combined payload %v (err %v), want [103]", vals, err)
	}
	if !bytes.Equal(first[1], firstPayload) {
		t.Fatal("Add wrote to the payload First was given")
	}

	gather := &msgCombiner{job: &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewDouble}}}
	first = msg(1)
	firstPayload = slices.Clone(first[1])
	acc = gather.First(first)
	for i := 2; i <= 5; i++ {
		acc = gather.Add(acc, msg(float64(i)))
	}
	vals, err = gather.job.Codec.DecodeMsgList(acc[1])
	if err != nil || len(vals) != 5 {
		t.Fatalf("gathered %d messages (err %v), want 5", len(vals), err)
	}
	for i, v := range vals {
		if *v.(*pregel.Double) != pregel.Double(i+1) {
			t.Fatalf("gathered message %d = %v, want %d", i, *v.(*pregel.Double), i+1)
		}
	}
	if !bytes.Equal(first[1], firstPayload) {
		t.Fatal("gathering Add wrote to the payload First was given")
	}
}
