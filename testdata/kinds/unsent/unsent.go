// Package unsent registers a handler for a kind that nothing sends:
// TestKindScanCatchesFixtures (root contract_test.go) checks it beside
// the program and expects exactly that finding.
package unsent

import (
	"encoding/json"

	"repro/internal/transport"
)

// Register answers a kind no client sends.
func Register(srv *transport.Server) {
	srv.Handle("unsent-fixture", func(json.RawMessage) (any, error) { return nil, nil })
}
