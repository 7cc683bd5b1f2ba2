// Package unhandled sends, through a wrapper, a kind that no server
// handles: TestKindScanCatchesFixtures (root contract_test.go) checks it
// beside the program and expects exactly that finding.
package unhandled

import "repro/internal/transport"

// Fetch asks for a kind no server answers.
func Fetch(c *transport.ManagedClient) error { return call(c, "unhandled-fixture") }

func call(c *transport.ManagedClient, kind string) error { return c.Call(kind, struct{}{}, nil) }
