package fault

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
)

func TestParseScheduleBasics(t *testing.T) {
	text := `
# a chaos drill
seed 42
fault partition target=witness-b dir=out from=10ms until=40ms
fault drop target=client dir=out skip=1
fault delay p=0.25 delay=50ms
fault disk-stall target=monitor every=3 delay=500ms count=2
fault disk-error target=monitor from=1s
`
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Seed != 42 {
		t.Fatalf("seed = %d, want 42", s.Seed)
	}
	if len(s.Rules) != 5 {
		t.Fatalf("rules = %d, want 5", len(s.Rules))
	}
	want := Rule{Kind: KindPartition, Target: "witness-b", Dir: DirOut, From: 10 * time.Millisecond, Until: 40 * time.Millisecond}
	if s.Rules[0] != want {
		t.Fatalf("rule[0] = %+v, want %+v", s.Rules[0], want)
	}
	if s.Rules[1].Skip != 1 || s.Rules[2].Probability != 0.25 ||
		s.Rules[3].Every != 3 || s.Rules[3].Count != 2 || s.Rules[4].From != time.Second {
		t.Fatalf("rules mis-parsed: %+v", s.Rules)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, text := range []string{
		"seed x",
		"seed 1\nseed 2",
		"fault frobnicate",
		"fault drop dir=sideways",
		"fault drop badkey=1",
		"fault drop from=2s until=1s",
		"fault delay", // missing delay=
		"fault drop p=1.5",
		"fault drop p=NaN",
		"fault drop skip=-1",
		"fault drop from=-1s",
		"bogus line",
	} {
		if _, err := ParseSchedule(text); err == nil {
			t.Errorf("ParseSchedule(%q) = nil error, want error", text)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	text := `seed 7
fault partition dir=out from=10ms target=witness-b until=40ms
fault drop skip=1 target=client
fault delay delay=50ms p=0.25
fault disk-stall count=2 delay=500ms every=3 target=monitor
`
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	formatted := s.Format()
	s2, err := ParseSchedule(formatted)
	if err != nil {
		t.Fatalf("reparse of Format output: %v\n%s", err, formatted)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip mismatch:\n  first:  %+v\n  second: %+v\nformatted:\n%s", s, s2, formatted)
	}
}

// TestDeterminism: two injectors from the same schedule draw identical
// decision sequences; a different seed draws a different one.
func TestDeterminism(t *testing.T) {
	sched := &Schedule{Seed: 99, Rules: []Rule{{Kind: KindReset, Probability: 0.5}}}
	draw := func(s *Schedule) []bool {
		in := Activate(s, "x")
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.match(opConnIO, DirIn) != nil
		}
		return out
	}
	a, b := draw(sched), draw(sched)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different decision sequences")
	}
	other := &Schedule{Seed: 100, Rules: sched.Rules}
	if reflect.DeepEqual(a, draw(other)) {
		t.Fatal("different seeds produced identical decision sequences (astronomically unlikely)")
	}
	// ~half of 200 draws should inject at p=0.5; allow wide slack.
	n := 0
	for _, v := range a {
		if v {
			n++
		}
	}
	if n < 50 || n > 150 {
		t.Fatalf("p=0.5 injected %d/200 times", n)
	}
}

func TestSkipEveryCount(t *testing.T) {
	sched := &Schedule{Seed: 1, Rules: []Rule{{Kind: KindReset, Skip: 2, Every: 3, Count: 2}}}
	in := Activate(sched, "x")
	var got []int
	for i := 0; i < 15; i++ {
		if in.match(opConnIO, DirIn) != nil {
			got = append(got, i)
		}
	}
	// Ops 0,1 skipped; then every 3rd of the remainder: ops 4, 7; count
	// caps it there.
	want := []int{4, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("injected at ops %v, want %v", got, want)
	}
}

func TestTargetSelection(t *testing.T) {
	sched := &Schedule{Seed: 1, Rules: []Rule{
		{Kind: KindReset, Target: "a"},
		{Kind: KindDiskError, Target: "*"},
	}}
	if in := Activate(sched, "b"); in.match(opConnIO, DirIn) != nil {
		t.Fatal("rule targeted at a matched injector b")
	}
	if in := Activate(sched, "b"); in.DiskFault("wal-fsync") == nil {
		t.Fatal("wildcard rule did not match injector b")
	}
	if in := Activate(sched, "a"); in.match(opConnIO, DirIn) == nil {
		t.Fatal("rule targeted at a did not match injector a")
	}
}

func TestDirectionality(t *testing.T) {
	sched := &Schedule{Seed: 1, Rules: []Rule{{Kind: KindReset, Dir: DirOut}}}
	in := Activate(sched, "x")
	if in.match(opConnIO, DirIn) != nil {
		t.Fatal("dir=out rule matched an inbound op")
	}
	if in.match(opConnIO, DirOut) == nil {
		t.Fatal("dir=out rule did not match an outbound op")
	}
}

func TestWindow(t *testing.T) {
	sched := &Schedule{Seed: 1, Rules: []Rule{{Kind: KindReset, From: 40 * time.Millisecond, Until: 90 * time.Millisecond}}}
	in := Activate(sched, "x")
	if in.match(opConnIO, DirIn) != nil {
		t.Fatal("rule matched before its window opened")
	}
	time.Sleep(55 * time.Millisecond)
	if in.match(opConnIO, DirIn) == nil {
		t.Fatal("rule did not match inside its window")
	}
	time.Sleep(60 * time.Millisecond)
	if in.match(opConnIO, DirIn) != nil {
		t.Fatal("rule matched after its window closed")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.DiskFault("wal-fsync"); err != nil {
		t.Fatal("nil injector injected a disk fault")
	}
	in.SetFlightRecorder(nil) // must not panic
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if in.Listener(ln) != ln {
		t.Fatal("nil injector wrapped the listener")
	}
}

// TestConnFaults drives reset and partition-heal through a real TCP
// pair and checks the flight recorder saw tagged events.
func TestConnFaults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // echo
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	t.Run("reset", func(t *testing.T) {
		sched := &Schedule{Seed: 1, Rules: []Rule{{Kind: KindReset, Dir: DirOut, Skip: 1}}}
		in := Activate(sched, "x")
		fr := obsv.NewFlightRecorder(16)
		in.SetFlightRecorder(fr)
		c, err := in.Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatalf("first write should pass (skip=1): %v", err)
		}
		_, err = c.Write([]byte("boom"))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("second write error = %v, want ErrInjected", err)
		}
		found := false
		for _, ev := range fr.Events() {
			if ev.Component == "fault" && ev.Kind == "injected" && strings.Contains(ev.Detail, "reset") {
				found = true
			}
		}
		if !found {
			t.Fatal("no injected reset event in flight recorder")
		}
	})

	t.Run("partition-heals", func(t *testing.T) {
		// skip=1 lets the dial itself through; the first write then hits
		// the partition and must block until the window ends.
		sched := &Schedule{Seed: 1, Rules: []Rule{{Kind: KindPartition, Dir: DirOut, Until: 120 * time.Millisecond, Skip: 1}}}
		in := Activate(sched, "x")
		c, err := in.Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		start := time.Now()
		if _, err := c.Write([]byte("hi")); err != nil {
			t.Fatalf("write after heal: %v", err)
		}
		if d := time.Since(start); d < 80*time.Millisecond {
			t.Fatalf("partition write returned after %v; want it to block until heal", d)
		}
		buf := make([]byte, 8)
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := c.Read(buf)
		if err != nil || string(buf[:n]) != "hi" {
			t.Fatalf("echo after heal: %q, %v", buf[:n], err)
		}
	})

	t.Run("drop-dial", func(t *testing.T) {
		sched := &Schedule{Seed: 1, Rules: []Rule{{Kind: KindDrop, Dir: DirOut}}}
		in := Activate(sched, "x")
		if _, err := in.Dial(ln.Addr().String(), time.Second); !errors.Is(err, ErrInjected) {
			t.Fatalf("dial under drop = %v, want ErrInjected", err)
		}
	})
}

func TestDiskFaults(t *testing.T) {
	sched := &Schedule{Seed: 1, Rules: []Rule{
		{Kind: KindDiskStall, Delay: 60 * time.Millisecond, Count: 1},
		{Kind: KindDiskError},
	}}
	in := Activate(sched, "x")
	start := time.Now()
	if err := in.DiskFault("wal-fsync"); err != nil {
		t.Fatalf("stall returned error: %v", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("disk-stall did not stall")
	}
	// Stall count exhausted; the disk-error rule is next in line.
	err := in.DiskFault("wal-fsync")
	var de *DiskError
	if !errors.As(err, &de) || de.Op != "wal-fsync" {
		t.Fatalf("DiskFault = %v, want *DiskError{wal-fsync}", err)
	}
}
