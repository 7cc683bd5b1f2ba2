package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The package contracts DESIGN.md states in prose, enforced on the
// source: who may import whom, and that there is one way to connect.

const internalPrefix = "repro/internal/"

// allowedInternalImports lists, for the packages whose contract bounds
// them, every repro/internal package their non-test files may import.
var allowedInternalImports = map[string][]string{
	"obsv":      nil,
	"ff":        nil,
	"sandbox":   nil,
	"shamir":    nil,
	"tee":       nil,
	"transport": {"obsv"},
	"store":     {"obsv"},
	"fault":     {"obsv"},
	"daemon":    {"obsv", "fault", "transport"},
	"serve":     {"aolog", "gossip", "obsv", "transport"},
}

// rawDialers are the transport entry points reserved to the transport
// package itself and to tests: everything else rides DialManaged.
var rawDialers = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialConn": true, "NewClient": true, "NewPushClient": true,
}

// rawDialerException is the one non-test file outside transport that
// may hold a raw transport.Client: a subscription is connection-scoped
// state, which a ManagedClient's silent redial would lose, so the
// subscriber must see its connection die and subscribe again itself.
const rawDialerException = "internal/serve/client.go"

// frameIO and netDialers are what internal/serve may not touch: the
// frame loop and the dial both belong to transport.
var (
	frameIO    = map[string]bool{"ReadFrame": true, "WriteFrame": true, "ReadFrameHeader": true, "WriteFrameHeader": true}
	netDialers = map[string]bool{"Dial": true, "DialTimeout": true}
)

// removedIdents must not come back under any spelling of a declaration
// or use. They are assembled from halves so this file does not itself
// trip a text search for them.
var removedIdents = map[string]bool{
	"Set" + "DialHook":            true,
	"Set" + "ListenerWrap":        true,
	"Dial" + "Context":            true,
	"Hed" + "ge":                  true,
	"MonitorHead" + "Hedged":      true,
	"Dial" + "Addr":               true,
	"Set" + "CeremonyDiagnostics": true,
	"Auto" + "Subscriber":         true,
	"Auto" + "Options":            true,
	"NewAuto" + "Subscriber":      true,
	"Set" + "ResumeFloors":        true,
}

// harnessOnly lists, by import path, the calls that build or tear down
// a daemon's planes. internal/daemon makes them once for every daemon;
// a main under cmd/ that made one itself would be a second copy of the
// wiring, in its own order.
var harnessOnly = map[string][]string{
	"os/signal":            {"Notify"},
	"repro/internal/fault": {"LoadSchedule", "Activate"},
	"repro/internal/obsv":  {"NewRegistry", "NewFlightRecorder", "NewWatchdogSet", "NewSLOEngine", "Endpoint"},
}

func TestPackageContracts(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is its own module (it may dial raw: that is what it
			// measures); dot-directories hold no source of ours.
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checkFile(t, filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func checkFile(t *testing.T, path string, file *ast.File) {
	isTest := strings.HasSuffix(path, "_test.go")
	pkg := "" // the internal package this file belongs to, if any (serve/loadtest is its own)
	if rest, ok := strings.CutPrefix(path, "internal/"); ok {
		pkg = filepath.ToSlash(filepath.Dir(rest))
	}

	inCmd := strings.HasPrefix(path, "cmd/") && !isTest
	transportName := ""                   // local name of the transport import, if any
	harnessCalls := map[string][]string{} // local import name -> harnessOnly selectors
	for _, imp := range file.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		if sels, ok := harnessOnly[ipath]; ok && inCmd {
			local := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			harnessCalls[local] = sels
		}
		target, ok := strings.CutPrefix(ipath, internalPrefix)
		if !ok {
			continue
		}
		if target == "transport" {
			transportName = "transport"
			if imp.Name != nil {
				transportName = imp.Name.Name
			}
		}
		if isTest {
			continue
		}
		if target == "fault" && pkg != "" && pkg != "daemon" {
			t.Errorf("%s: imports %s; only the daemon harness, cmd/ and tests may — libraries take the injector's Dial/Listener as plain values", path, ipath)
		}
		if allowed, bounded := allowedInternalImports[pkg]; bounded && !slices.Contains(allowed, target) {
			t.Errorf("%s: package %s must not import %s (allowed: %v)", path, pkg, ipath, allowed)
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if removedIdents[n.Name] {
				t.Errorf("%s: identifier %s was removed (a process global or a second way to connect) and must not come back", path, n.Name)
			}
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			if ok && !isTest && pkg != "transport" && transportName != "" &&
				x.Name == transportName && rawDialers[n.Sel.Name] && path != rawDialerException {
				t.Errorf("%s: uses transport.%s; non-test code outside internal/transport holds a transport.ManagedClient", path, n.Sel.Name)
			}
			if ok && !isTest && pkg == "serve" &&
				(x.Name == transportName && frameIO[n.Sel.Name] || x.Name == "net" && netDialers[n.Sel.Name]) {
				t.Errorf("%s: uses %s.%s; serve reads and writes no frame and dials nothing, it rides a transport.Client", path, x.Name, n.Sel.Name)
			}
			if ok && slices.Contains(harnessCalls[x.Name], n.Sel.Name) {
				t.Errorf("%s: uses %s.%s; a daemon's planes are built and torn down by internal/daemon", path, x.Name, n.Sel.Name)
			}
			if inCmd && n.Sel.Name == "ListenAndServe" {
				t.Errorf("%s: calls ListenAndServe; internal/daemon owns a daemon's listeners (Harness.Serve, Harness.Observe)", path)
			}
		}
		return true
	})
}
