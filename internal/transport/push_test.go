package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestPushFramesReachClient subscribes over a raw connection and checks
// that server-initiated _batch frames arrive interleaved with (but never
// corrupting) ordinary responses.
func TestPushFramesReachClient(t *testing.T) {
	srv := NewServer()
	pushers := make(chan *Pusher, 1)
	srv.HandlePush("sub", func(body json.RawMessage, p *Pusher) (any, error) {
		if p == nil {
			t.Error("connection-borne subscribe got nil pusher")
		}
		pushers <- p
		return map[string]string{"status": "subscribed"}, nil
	})
	ln := NewMemListener()
	srv.Serve(ln)
	defer srv.Close()

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Subscribe.
	if err := WriteFrame(conn, appendEnvelope(nil, 0, 7, "sub", "")); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := parseEnvelope(frame); err != nil || !resp.reply || !resp.OK || resp.ID != 7 {
		t.Fatalf("subscribe ack: %v %+v", err, resp)
	}

	// net.Pipe is synchronous, so pushes are written from their own
	// goroutine (as a hub would) while this side reads.
	p := <-pushers
	pushErr := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			body, _ := json.Marshal(map[string]int{"seq": i})
			if err := p.Push([]Request{{Kind: "notify", Body: body}}); err != nil {
				pushErr <- err
				return
			}
		}
		pushErr <- nil
	}()
	for i := 0; i < 3; i++ {
		frame, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		push, err := parseEnvelope(frame)
		if err != nil {
			t.Fatal(err)
		}
		if push.reply || !push.batch || push.ID != 0 || push.Kind != BatchKind {
			t.Fatalf("push frame %+v, want a %q container with ID 0", push, BatchKind)
		}
		subs, err := parseSubRequests(nil, push.Body)
		if err != nil || len(subs) != 1 || subs[0].Kind != "notify" || string(subs[0].Body) != fmt.Sprintf(`{"seq":%d}`, i) {
			t.Fatalf("push body: %v %+v", err, subs)
		}
	}
	if err := <-pushErr; err != nil {
		t.Fatal(err)
	}

	// Dropping the connection closes Done.
	conn.Close()
	select {
	case <-p.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("pusher Done not closed after connection drop")
	}
	if err := p.Push([]Request{{Kind: "notify"}}); err == nil {
		t.Fatal("push after close succeeded")
	}
}

// TestPushKindRefusedInsideBatch ensures a client cannot smuggle a
// subscription into a _batch frame.
func TestPushKindRefusedInsideBatch(t *testing.T) {
	srv := NewServer()
	srv.HandlePush("sub", func(json.RawMessage, *Pusher) (any, error) {
		return struct{}{}, nil
	})
	sub := appendSubRequests(nil, []Request{{Kind: "sub"}})
	resp := srv.dispatch(&Request{ID: 1, Kind: BatchKind, Body: sub})
	if !resp.OK {
		t.Fatalf("batch envelope failed: %s", resp.Error)
	}
	entries, err := parseContainer(resp.Body)
	if err != nil || len(entries) != 1 {
		t.Fatal(err)
	}
	if entries[0].flags&flagError == 0 {
		t.Fatal("push kind accepted inside a batch")
	}
}

// TestPushHandlerDirectDispatchGetsNilPusher covers the fuzz/direct path.
func TestPushHandlerDirectDispatchGetsNilPusher(t *testing.T) {
	srv := NewServer()
	srv.HandlePush("sub", func(_ json.RawMessage, p *Pusher) (any, error) {
		if p != nil {
			t.Error("direct dispatch delivered a pusher")
		}
		return struct{}{}, nil
	})
	if resp := srv.dispatch(&Request{ID: 1, Kind: "sub"}); !resp.OK {
		t.Fatalf("direct dispatch failed: %s", resp.Error)
	}
}

// dispatch serves one request outside any connection.
func (s *Server) dispatch(req *Request) *Response {
	return s.dispatchConn(context.Background(), req, nil, new(replyEncoding))
}
