package domain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf8"

	"repro/internal/framework"
	"repro/internal/tee"
)

// AuditResponse's binary form, what an "audit" reply is on a wire-v2
// connection when the request set Binary:
//
//	flags byte | str Domain | Status | int From | records | [Quote] |
//	bytes HostKey | bytes HostSig | bytes HostReport
//
//	Status   uvarint Version | str CurrentDigest | int LogLen |
//	         opt LogHead | uvarint Counter | [uvarint Version | str Digest]
//	records  uvarint count+1 (0: nil) | count × opt
//	Quote    str Vendor | str PlatformID | 32 Measurement | 64 ReportData |
//	         opt AttKey | opt Endorsement | opt Signature
//
//	str    uvarint len | UTF-8 bytes
//	bytes  uvarint len | bytes; 0 decodes as nil (the JSON field is omitempty)
//	opt    uvarint len+1 | bytes; 0 is nil (JSON null), 1 is empty
//	int    uvarint of the two's-complement uint64
//
// flags says whether the Quote and the Status's Pending update follow,
// and carries Status.Frozen; a decoder rejects bits it does not know.
// The form carries exactly what the JSON form does: a decoded value
// equals the JSON round trip of the same value (FuzzAuditResponseForms),
// so a check that branches on nil — verifyAttested on HostReport — sees
// the same value whichever form arrived. That is why strings must be
// UTF-8, which JSON would rewrite, and why an empty omitempty field
// decodes as nil.
const (
	auditHasQuote   = 1 << 0
	auditHasPending = 1 << 1
	auditFrozen     = 1 << 2
	auditKnownFlags = auditHasQuote | auditHasPending | auditFrozen
)

var errNotUTF8 = errors.New("domain: audit response string is not valid UTF-8")

// AppendBinary appends the response's binary form to b.
func (r *AuditResponse) AppendBinary(b []byte) ([]byte, error) {
	if r == nil {
		return b, errors.New("domain: nil audit response has no binary form")
	}
	st := &r.Status
	strs := []string{r.Domain, st.CurrentDigest}
	var flags byte
	if r.Quote != nil {
		flags |= auditHasQuote
		strs = append(strs, string(r.Quote.Vendor), r.Quote.PlatformID)
	}
	if st.Pending != nil {
		flags |= auditHasPending
		strs = append(strs, st.Pending.Digest)
	}
	if st.Frozen {
		flags |= auditFrozen
	}
	for _, s := range strs {
		if !utf8.ValidString(s) {
			return b, errNotUTF8
		}
	}
	b = appendStr(append(b, flags), r.Domain)
	b = binary.AppendUvarint(b, st.Version)
	b = appendStr(b, st.CurrentDigest)
	b = binary.AppendUvarint(b, uint64(st.LogLen))
	b = appendOpt(b, st.LogHead)
	b = binary.AppendUvarint(b, st.Counter)
	if st.Pending != nil {
		b = appendStr(binary.AppendUvarint(b, st.Pending.Version), st.Pending.Digest)
	}
	b = binary.AppendUvarint(b, uint64(r.From))
	if r.Records == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(r.Records))+1)
		for _, rec := range r.Records {
			b = appendOpt(b, rec)
		}
	}
	if q := r.Quote; q != nil {
		b = appendStr(appendStr(b, string(q.Vendor)), q.PlatformID)
		b = append(append(b, q.Measurement[:]...), q.ReportData[:]...)
		b = appendOpt(appendOpt(appendOpt(b, q.AttKey), q.Endorsement), q.Signature)
	}
	for _, p := range [][]byte{r.HostKey, r.HostSig, r.HostReport} {
		b = append(binary.AppendUvarint(b, uint64(len(p))), p...)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *AuditResponse) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It replaces
// the whole value, copies what it keeps, rejects trailing bytes and
// leaves r untouched on error.
func (r *AuditResponse) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	flags := d.byte()
	if flags&^auditKnownFlags != 0 {
		return d.fail(fmt.Sprintf("unknown flags %#x", flags))
	}
	out := AuditResponse{Domain: d.str()}
	st := &out.Status
	st.Version = d.uvarint()
	st.CurrentDigest = d.str()
	st.LogLen = d.int()
	st.LogHead = d.opt()
	st.Counter = d.uvarint()
	if flags&auditHasPending != 0 {
		st.Pending = &framework.PendingUpdate{Version: d.uvarint(), Digest: d.str()}
	}
	st.Frozen = flags&auditFrozen != 0
	out.From = d.int()
	// Every record takes at least a byte, which bounds the allocation.
	if n := d.uvarint(); n > 0 && d.err == nil {
		if n-1 > uint64(len(d.b)) {
			return d.fail("record count")
		}
		out.Records = make([][]byte, n-1)
		for i := range out.Records {
			out.Records[i] = d.opt()
		}
	}
	if flags&auditHasQuote != 0 {
		q := &tee.Quote{Vendor: tee.VendorID(d.str()), PlatformID: d.str()}
		copy(q.Measurement[:], d.take(uint64(len(q.Measurement))))
		copy(q.ReportData[:], d.take(uint64(len(q.ReportData))))
		q.AttKey, q.Endorsement, q.Signature = d.opt(), d.opt(), d.opt()
		out.Quote = q
	}
	out.HostKey, out.HostSig, out.HostReport = d.bytes(), d.bytes(), d.bytes()
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	*r = out
	return nil
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendOpt appends a byte string that may be nil: its length+1, 0 for nil.
func appendOpt(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	return append(binary.AppendUvarint(b, uint64(len(p))+1), p...)
}

// decoder reads the binary form front to back, checking every length
// against what is left before it slices. The first failure sticks, and
// every read after it returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) error {
	if d.err == nil {
		d.err = fmt.Errorf("domain: malformed binary audit response: %s", what)
	}
	return d.err
}

func (d *decoder) byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	u := d.uvarint()
	if uint64(int(u)) != u {
		d.fail("integer")
		return 0
	}
	return int(u)
}

// take returns the next n bytes, aliasing the input.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("length")
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) str() string {
	s := d.take(d.uvarint())
	if !utf8.Valid(s) {
		d.fail("string is not UTF-8")
		return ""
	}
	return string(s)
}

// bytes reads an omitempty field: empty is nil.
func (d *decoder) bytes() []byte {
	if p := d.take(d.uvarint()); len(p) > 0 {
		return append([]byte(nil), p...)
	}
	return nil
}

// opt reads a field that may be nil.
func (d *decoder) opt() []byte {
	n := d.uvarint()
	if n == 0 || d.err != nil {
		return nil
	}
	p := d.take(n - 1)
	if p == nil {
		return nil
	}
	return append(make([]byte, 0, len(p)), p...)
}
