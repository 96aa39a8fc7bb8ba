package main

import (
	"bytes"
	"context"
	"testing"

	"netdiag/internal/server"
)

func snapshotOf(t *testing.T, register func(*server.Registry) error, name string) *server.Snapshot {
	t.Helper()
	reg := server.NewRegistry()
	if err := register(reg); err != nil {
		t.Fatal(err)
	}
	snap, err := server.NewStore(reg, 1, "", nil).Get(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func requestBytes(reqs []diagReq) []byte {
	var buf bytes.Buffer
	for _, q := range reqs {
		buf.Write(q.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func feedBytes(feed []feedBody) []byte {
	var buf bytes.Buffer
	for _, b := range feed {
		buf.Write(b.data)
	}
	return buf.Bytes()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	snap := snapshotOf(t, registerResearch, research)
	reqs := func(seed int64) []diagReq {
		out, err := genRequests(snap, research, seed, 300, 3, diagnoseMix, true)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := reqs(1), reqs(1), reqs(2)
	if !bytes.Equal(requestBytes(a), requestBytes(b)) {
		t.Error("request lists differ for one seed")
	}
	if bytes.Equal(requestBytes(a), requestBytes(c)) {
		t.Error("request lists equal across seeds")
	}
	seen := map[string]bool{}
	algos := map[string]int{}
	for _, q := range a {
		if seen[q.key] {
			t.Fatalf("failure set %s drawn twice", q.key)
		}
		seen[q.key] = true
		algos[q.algo]++
		if len(q.links) < 1 || len(q.links) > 3 {
			t.Fatalf("request fails %d links", len(q.links))
		}
	}
	// 300 requests are 60 dealt blocks of the five-slot mix.
	if algos["nd-edge"] != 120 || algos["tomo"] != 60 || algos["nd-bgpigp"] != 60 || algos["nd-lg"] != 60 {
		t.Errorf("algorithm mix = %v", algos)
	}

	feed := func(seed int64) []feedBody {
		out, err := genFeed(snap, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	f1, f2, f3 := feed(1), feed(1), feed(2)
	if !bytes.Equal(feedBytes(f1), feedBytes(f2)) {
		t.Error("feeds differ for one seed")
	}
	if bytes.Equal(feedBytes(f1), feedBytes(f3)) {
		t.Error("feeds equal across seeds")
	}
	if len(f1) != 2*bodiesPerEpisode {
		t.Fatalf("2 episodes gave %d bodies", len(f1))
	}
	for i := 1; i < len(f1); i++ {
		if f1[i].due <= f1[i-1].due || f1[i].maxTS <= f1[i-1].maxTS {
			t.Fatalf("body %d is not after body %d in both clocks", i, i-1)
		}
	}
}

func TestClosingBody(t *testing.T) {
	snap := snapshotOf(t, registerResearch, research)
	feed, err := genFeed(snap, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(episodeTS)
	for _, c := range []struct {
		lastTS int64
		want   int
	}{
		// The withdrawal's event, last observed in the failing round, is
		// closed by the episode's first keepalive.
		{1000, bodyClose},
		{2000 + probesPerRound - 1, bodyClose},
		// The announcement's event is closed by the second keepalive.
		{8000, bodyClose2},
		// The same bodies in the second episode.
		{base + 2100, bodiesPerEpisode + bodyClose},
		{base + 8000, bodiesPerEpisode + bodyClose2},
		// Nothing after the feed's last record closes an event.
		{base + 8000 + idleCloseMS + 1, -1},
	} {
		if got := closingBody(feed, c.lastTS); got != c.want {
			t.Errorf("closingBody(last_ts %d) = %d, want %d", c.lastTS, got, c.want)
		}
	}
}
