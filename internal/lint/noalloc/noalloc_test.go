package noalloc_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestNoalloc(t *testing.T) { analysistest.Run(t, "noalloc", "noalloc") }

func TestNoallocCrossPackage(t *testing.T) { analysistest.Run(t, "noalloc", "crosspkg") }
