package domain

import (
	"encoding/hex"
	"testing"
)

// TestHistoryBindingKnownAnswers pins the history bindings a domain
// attests: every history envelope already minted carries one of these
// hashes, so a change to either byte layout stops them verifying.
func TestHistoryBindingKnownAnswers(t *testing.T) {
	records := [][]byte{
		[]byte("record-0"),
		{},
		[]byte("a somewhat longer record, the third"),
		[]byte("r3"),
		make([]byte, 300), // a length past one byte
	}
	nonce := []byte("kat nonce")
	const kat0 = "54340ab5be21735009c4fd83c8a4c83e3ea5870b4ca747467175b116b39d0d56"
	for _, tc := range []struct {
		from int
		want string
	}{
		{0, kat0},
		{3, "3c10de7adccca832725dcf55aa55cb70422f3ff0fd4174da7e1ce5986deab488"},
	} {
		got := hex.EncodeToString(HistoryBindingFrom(tc.from, records[tc.from:], nonce))
		if got != tc.want {
			t.Errorf("HistoryBindingFrom(%d) = %s, want %s", tc.from, got, tc.want)
		}
	}
	if got := hex.EncodeToString(HistoryBindingFrom(0, records, nonce)); got != kat0 {
		t.Errorf("HistoryBinding = %s, want the from-0 vector", got)
	}
}
