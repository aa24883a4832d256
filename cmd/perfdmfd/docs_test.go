package main

import (
	"io"
	"testing"

	"perfknow/internal/flagdoc"
)

// TestFlagsDocumented: the guides name every flag and no flag that is gone.
func TestFlagsDocumented(t *testing.T) {
	flagdoc.Check(t, newFlagSet(new(options), io.Discard))
}
