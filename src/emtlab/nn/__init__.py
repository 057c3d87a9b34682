"""Reverse-mode autodiff tape, layers and parameter storage."""
