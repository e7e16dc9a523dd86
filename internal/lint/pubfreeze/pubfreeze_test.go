package pubfreeze_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestPubfreeze(t *testing.T) { analysistest.Run(t, "pubfreeze", "pubfreeze") }

func TestPubfreezeCrossPackage(t *testing.T) { analysistest.Run(t, "pubfreeze", "crosspkg") }
