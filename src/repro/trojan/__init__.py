"""Hardware Trojan modelling, insertion, and trigger-coverage evaluation."""
