package lint

import "strings"

// Per-package scoping. Packages are named by their module-root-relative
// directory; a trailing "/" matches the whole subtree. The classes mirror
// the repository's architecture:
//
//   - round-driven code (the protocols, the simulator, the experiment
//     harness) lives in logical time: the round counter is the only clock
//     and every random draw must come from a seeded *rand.Rand, or replay
//     and transcript-digest comparison silently break;
//   - real-time code (tcpnet's Δ-timeout mesh, the supervisor's stall
//     watchdog) legitimately reads the wall clock and may jitter with
//     global randomness; faultnet is NOT in this class — it wraps real
//     transports, but its fault schedule is a pure function of the seed;
//   - driver code (cmd/*, examples/*) reports human-facing timings and is
//     not replayed.
var (
	// realTimePkgs are exempt from wallclock and detrand: they bridge the
	// logical protocol to a physical network.
	realTimePkgs = []string{
		"internal/tcpnet",
		"internal/supervisor",
	}

	// driverPkgs are CLI entry points and runnable examples.
	driverPkgs = []string{
		"cmd/",
		"examples/",
	}

	// harnessPkgs are test scaffolding, not protocol code; maporder and
	// friends would only flag fixture patterns there. The lint package
	// itself is included so its testdata-driven fixtures never gate CI.
	harnessPkgs = []string{
		"internal/transporttest",
		"internal/lint",
	}
)

// appliesTo reports whether the named check runs on the package at the
// module-relative directory rel.
func appliesTo(check, rel string) bool {
	switch check {
	case "detrand", "wallclock":
		return !matchAny(rel, realTimePkgs) && !matchAny(rel, driverPkgs) && !matchAny(rel, harnessPkgs)
	case "errflow":
		// Drivers legitimately collapse typed errors into exit codes and
		// human-readable output at the very end of the process.
		return !matchAny(rel, driverPkgs) && !matchAny(rel, harnessPkgs)
	}
	// Ordering, durability, liveness and frame-lifetime contracts hold
	// everywhere protocol or transport code runs; only test scaffolding
	// is exempt.
	return !matchAny(rel, harnessPkgs)
}

// matchAny reports whether rel equals an entry or sits under an entry
// ending in "/".
func matchAny(rel string, pats []string) bool {
	for _, p := range pats {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(rel, p) || rel == strings.TrimSuffix(p, "/") {
				return true
			}
		} else if rel == p {
			return true
		}
	}
	return false
}
