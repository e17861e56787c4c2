package fixsemtime

import (
	"testing"
	"time"
)

// Test files are exempt: a test may read the wall clock to build its
// fixture.
func TestStart(t *testing.T) {
	if time.Now().IsZero() {
		t.Fatal("zero wall clock")
	}
}
