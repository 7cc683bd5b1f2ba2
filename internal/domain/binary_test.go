package domain

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/framework"
	"repro/internal/tee"
)

// formEdges are replies that differ only where JSON tells nil from
// empty, or drops an empty omitempty field: the two forms must agree on
// every one.
func formEdges() []*AuditResponse {
	var out []*AuditResponse
	for _, g := range goldenReplies() {
		out = append(out, g.resp)
	}
	out = append(out,
		&AuditResponse{},
		&AuditResponse{Records: [][]byte{}, Status: framework.Status{LogHead: []byte{}}},
		&AuditResponse{Records: [][]byte{nil, {}, {0}}, From: -1, Status: framework.Status{LogLen: -5}},
		&AuditResponse{HostKey: []byte{}, HostSig: []byte{}, HostReport: []byte{}},
		&AuditResponse{HostReport: make([]byte, 64)},
		&AuditResponse{Quote: &tee.Quote{}, Status: framework.Status{Pending: &framework.PendingUpdate{}}},
		&AuditResponse{Quote: &tee.Quote{AttKey: []byte{}, Endorsement: []byte{}, Signature: []byte{}}},
		&AuditResponse{Domain: "dömain-<&> ", Status: framework.Status{CurrentDigest: "\x00\x7f", Frozen: true}},
	)
	return out
}

// TestAuditResponseFormsAgree: for every edge reply, the binary form
// decodes to exactly what the JSON form does.
func TestAuditResponseFormsAgree(t *testing.T) {
	for i, r := range formEdges() {
		b, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		var got AuditResponse
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		if want := jsonRoundTrip(t, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("edge %d: binary decodes to %+v, JSON to %+v", i, got, want)
		}
	}
}

// TestAuditResponseBinaryRejects: every proper prefix, a trailing byte,
// an unknown flag, a string that is not UTF-8 and a record count beyond
// the body are rejected, and a rejected body leaves the receiver as it
// was. The encoder refuses a string that is not UTF-8.
func TestAuditResponseBinaryRejects(t *testing.T) {
	good, err := goldenReplies()[0].resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sentinel := AuditResponse{Domain: "untouched"}
	reject := func(what string, data []byte) {
		t.Helper()
		r := sentinel
		if err := r.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s accepted", what)
		}
		if !reflect.DeepEqual(r, sentinel) {
			t.Fatalf("%s changed the receiver", what)
		}
	}
	for n := 0; n < len(good); n++ {
		reject("a prefix", good[:n])
	}
	reject("a trailing byte", append(append([]byte(nil), good...), 0))
	reject("an unknown flag", append([]byte{good[0] | 0x80}, good[1:]...))
	bad := append([]byte(nil), good...)
	bad[2] = 0xff // the first byte of the domain name
	reject("a name that is not UTF-8", bad)
	reject("a record count beyond the body", []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x7f})
	if _, err := (&AuditResponse{Domain: "\xff"}).MarshalBinary(); err == nil {
		t.Fatal("encoded a name that is not UTF-8")
	}
}

// FuzzAuditResponseForms: whatever the binary decoder accepts equals
// what the JSON form makes of the same value, and re-encodes to itself.
// verifyAttested branches on nil (HostReport, Quote), so the forms must
// agree on nil and empty, not just on bytes.
func FuzzAuditResponseForms(f *testing.F) {
	for _, r := range formEdges() {
		b, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var bin AuditResponse
		if err := bin.UnmarshalBinary(data); err != nil {
			if !strings.HasPrefix(err.Error(), "domain: malformed binary audit response") {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		if want := jsonRoundTrip(t, &bin); !reflect.DeepEqual(bin, want) {
			t.Fatalf("binary decodes to %+v, JSON to %+v", bin, want)
		}
		again, err := bin.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back AuditResponse
		if err := back.UnmarshalBinary(again); err != nil || !reflect.DeepEqual(back, bin) {
			t.Fatalf("re-encoding does not round-trip (%v)", err)
		}
	})
}
