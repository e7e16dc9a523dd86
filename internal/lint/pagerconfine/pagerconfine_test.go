package pagerconfine_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestPagerConfine(t *testing.T) { analysistest.Run(t, "pagerconfine", "pagerconfine") }

func TestPagerConfineCrossPackage(t *testing.T) { analysistest.Run(t, "pagerconfine", "crosspkg") }
