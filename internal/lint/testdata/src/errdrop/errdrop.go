// Fixture for the errdrop analyzer: bare-statement discards of
// checkpoint, transport-exchange, and os.File Close/Sync errors are
// flagged; handling, blank-assign acknowledgment, and deferred cleanup
// are not.
package errdrop

import (
	"os"

	"convexagreement/internal/checkpoint"
)

func dropFileOps(f *os.File) {
	f.Sync()  // want `\(\*os\.File\)\.Sync returns an error that is silently dropped`
	f.Close() // want `\(\*os\.File\)\.Close returns an error that is silently dropped`
}

func dropWAL(l *checkpoint.Log) {
	l.AppendMeta(3, 1) // want `checkpoint\.AppendMeta returns an error`
	l.Close()          // want `checkpoint\.Close returns an error`
}

func dropInspect(dir string) {
	checkpoint.InspectOptions(dir, checkpoint.Options{}) // want `checkpoint\.InspectOptions returns an error`
}

type fakeNet struct{}

func (fakeNet) Exchange(out [][]byte) ([][]byte, error) { return nil, nil }

func dropExchange(n fakeNet) {
	n.Exchange(nil) // want `transport Exchange returns an error`
}

func handled(f *os.File) error {
	return f.Close()
}

func acknowledged(f *os.File) {
	_ = f.Close()
}

func deferredCleanup(f *os.File) {
	defer f.Close() // conventional cleanup path; not flagged
}

func otherClosersOutOfScope(ch chan int) {
	close(ch) // builtin, no error
}

func suppressed(f *os.File) {
	//calint:ignore errdrop read-only handle, close failure carries no data loss
	f.Close()
}
